// Streams: Strand's list-based communication structure (paper Section 2.1).
//
// A Stream<T> is a handle to a single-assignment list cell. A producer
// "incrementally instantiates a shared variable to a list structure",
// binding each cell to either Cons(value, tail) — push() — or Nil —
// close(). Consumers walk the cells, suspending (via continuation) on the
// first unbound one. This gives exactly the producer/consumer coupling of
// the paper's Figure 1.
//
// StreamWriter<T> is the multi-producer append handle used to implement the
// `merge` primitive of the Server motif: N servers' output streams are
// interleaved into one input stream per server (Figure 3).
#pragma once

#include <memory>
#include <mutex>
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

/// Multi-producer append handle. Several producers may send() concurrently;
/// the result is some interleaving, exactly like Strand's merge. The stream
/// is closed when close() has been called `expected_closes` times (one per
/// producer), supporting the merge-of-N-streams pattern.
template <class T>
class StreamWriter {
 public:
  explicit StreamWriter(Stream<T> head, std::size_t expected_closes = 1)
      : s_(std::make_shared<State>(std::move(head), expected_closes)) {}

  /// Creates the head itself; read it back with head().
  explicit StreamWriter(std::size_t expected_closes = 1)
      : StreamWriter(Stream<T>(), expected_closes) {}

  Stream<T> head() const { return s_->head; }

  void send(T value) {
    // Reserve the cell under the lock, bind it outside: binding runs
    // consumer continuations, which may call back into this writer
    // (e.g. a server sending a message to itself).
    Stream<T> cell, fresh;
    {
      std::lock_guard lock(s_->m);
      cell = s_->tail;
      s_->tail = fresh;
    }
    cell.bind_cons(std::move(value), fresh);
  }

  /// One producer is done; the stream ends when all are.
  void close() {
    Stream<T> cell;
    bool last = false;
    {
      std::lock_guard lock(s_->m);
      if (s_->remaining == 0) throw StreamReuse();
      last = (--s_->remaining == 0);
      cell = s_->tail;
    }
    if (last) cell.close();
  }

 private:
  struct State {
    State(Stream<T> h, std::size_t n) : head(h), tail(h), remaining(n) {}
    std::mutex m;
    Stream<T> head;
    Stream<T> tail;
    std::size_t remaining;
  };
  std::shared_ptr<State> s_;
};

/// The `merge` primitive ([8] and Figure 3): interleaves `inputs` into one
/// output stream, closing it when every input has closed. Fairness is
/// event-driven: items are forwarded in the order their cells resolve.
template <class T>
Stream<T> merge(std::vector<Stream<T>> inputs) {
  StreamWriter<T> out(inputs.empty() ? 1 : inputs.size());
  if (inputs.empty()) {
    out.close();
    return out.head();
  }
  // pump() walks one input, forwarding resolved cells without recursion
  // (a fully materialised input must not overflow the stack) and
  // re-registering on the first unresolved cell.
  struct Pump {
    static void run(Stream<T> cur, StreamWriter<T> out) {
      for (;;) {
        bool nil = false;
        auto nx = cur.try_next(nil);
        if (nx) {
          out.send(std::move(nx->first));
          cur = nx->second;
          continue;
        }
        if (nil) {
          out.close();
          return;
        }
        Stream<T> pending = cur;
        pending.when_ready([cur, out] { Pump::run(cur, out); });
        return;
      }
    }
  };
  for (auto& in : inputs) Pump::run(in, out);
  return out.head();
}

}  // namespace motif::rt
