// Streams: Strand's list-based communication structure (paper Section 2.1).
//
// A Stream<T> is a handle to a single-assignment list cell. A producer
// "incrementally instantiates a shared variable to a list structure",
// binding each cell to either Cons(value, tail) — push() — or Nil —
// close(). Consumers walk the cells, suspending (via continuation) on the
// first unbound one. This gives exactly the producer/consumer coupling of
// the paper's Figure 1.
//
// A Stream has one producer. The Server motif's `merge` of many producers
// into one input (Figure 3) is the node mailbox in native code
// (motifs/server.hpp) and `make_ports` in the interpreter.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/cell.hpp"

namespace motif::rt {

/// Thrown when a stream cell is instantiated twice (push/close on a cell
/// that already has a value), mirroring Strand's single-assignment errors.
class StreamReuse : public std::logic_error {
 public:
  StreamReuse() : std::logic_error("stream cell instantiated twice") {}
};

template <class T>
class Stream {
  /// What a cell is bound to: (value, tail) for Cons, nullopt for Nil.
  using Link = std::optional<std::pair<T, Stream>>;

 public:
  /// A fresh, unbound cell.
  Stream() : c_(std::make_shared<Cell<Link>>()) {}
  Stream(const Stream&) = default;
  Stream(Stream&&) noexcept = default;
  Stream& operator=(const Stream&) = default;
  Stream& operator=(Stream&&) noexcept = default;

  /// Frees a materialised chain one cell at a time while this handle owns
  /// it alone: a recursive release takes a stack frame per cell.
  ~Stream() {
    for (auto c = std::move(c_); c && c.use_count() == 1;) {
      const Link* l = c->peek();
      if (l == nullptr || !l->has_value()) return;
      c = (*l)->second.c_;  // frees the old cell; its tail is not the last
    }
  }

  /// Binds this cell to Cons(value, fresh-tail) and returns the tail.
  Stream push(T value) {
    Stream tail;
    bind_cons(std::move(value), tail);
    return tail;
  }

  /// Binds this cell to Cons(value, tail) with a caller-supplied tail.
  void bind_cons(T value, Stream tail) {
    if (!c_->try_bind(std::in_place, std::move(value), std::move(tail))) {
      throw StreamReuse();
    }
  }

  /// Binds this cell to Nil (end of stream).
  void close() {
    if (!c_->try_bind(std::nullopt)) throw StreamReuse();
  }

  /// True once this cell is Cons or Nil.
  bool resolved() const { return c_->bound(); }

  /// True once this cell is Nil (the end of the stream); false while it
  /// is unresolved or Cons.
  bool is_nil() const {
    const Link* l = c_->peek();
    return l != nullptr && !l->has_value();
  }

  /// Registers `f()` to run when this cell resolves (inline if already
  /// resolved). `f` should then re-inspect the cell via try_next().
  template <class F>
  void when_ready(F f) {
    c_->when_bound([f = std::move(f)](const Link&) mutable { f(); });
  }

  /// If resolved to Cons, returns (value-copy, tail); if Nil, returns
  /// nullopt and sets `nil` true; if unresolved, returns nullopt with
  /// `nil` false.
  std::optional<std::pair<T, Stream>> try_next(bool& nil) const {
    const Link* l = c_->peek();
    nil = l != nullptr && !l->has_value();
    return l != nullptr ? *l : std::nullopt;
  }

  /// Blocking consume for threads outside the Machine. nullopt = Nil.
  std::optional<std::pair<T, Stream>> next_blocking() const {
    return c_->wait();
  }

  /// Drains the whole stream into a vector (blocking; test helper).
  std::vector<T> collect_blocking() const {
    std::vector<T> out;
    Stream cur = *this;
    while (auto nx = cur.next_blocking()) {
      out.push_back(std::move(nx->first));
      cur = nx->second;
    }
    return out;
  }

  bool same_cell(const Stream& o) const { return c_ == o.c_; }

 private:
  std::shared_ptr<Cell<Link>> c_;
};

}  // namespace motif::rt
