// Short-circuit termination detection.
//
// The paper (Section 3.3) notes that a motif transformation "can be
// extended to thread a short circuit [8] through the application program"
// to detect global termination. The classic Strand technique threads a
// (Left, Right) variable pair through every process; a process shorts its
// segment when it terminates, and forks the segment when it spawns
// children. When every segment is shorted the circuit closes end to end.
//
// This implementation preserves the fork/close algebra of the technique
// (each live Link is one open segment) with a counter at the core. A
// dropped (destroyed) open Link closes itself, so exceptional unwinding
// cannot wedge the circuit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "runtime/cell.hpp"

namespace motif::rt {

class ShortCircuit {
  struct Closed {};
  struct State {
    std::atomic<std::uint64_t> open{0};
    Cell<Closed> done;

    void close_one() {
      if (open.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        done.try_bind(Closed{});
      }
    }
  };

 public:
  /// One open segment of the circuit. Move-only; destroying an open link
  /// closes it.
  class Link {
   public:
    Link() = default;
    Link(Link&& o) noexcept : s_(std::move(o.s_)) { o.s_.reset(); }
    Link& operator=(Link&& o) noexcept {
      if (this != &o) {
        close_if_open();
        s_ = std::move(o.s_);
        o.s_.reset();
      }
      return *this;
    }
    Link(const Link&) = delete;
    Link& operator=(const Link&) = delete;
    ~Link() { close_if_open(); }

    /// Splits this segment in two: this link stays open and a new open
    /// link is returned (use when spawning a child process).
    Link fork() {
      s_->open.fetch_add(1, std::memory_order_relaxed);
      return Link(s_);
    }

    /// Shorts this segment. The link becomes empty.
    void close() { close_if_open(); }

    bool open() const { return static_cast<bool>(s_); }

   private:
    friend class ShortCircuit;
    explicit Link(std::shared_ptr<State> s) : s_(std::move(s)) {}
    void close_if_open() {
      if (s_) {
        auto s = std::move(s_);
        s_.reset();
        s->close_one();
      }
    }
    std::shared_ptr<State> s_;
  };

  ShortCircuit() : s_(std::make_shared<State>()) {}

  /// The initial segment. Call exactly once per circuit.
  Link root() {
    s_->open.fetch_add(1, std::memory_order_relaxed);
    return Link(s_);
  }

  bool done() const { return s_->done.bound(); }

  /// Blocking wait (external threads).
  void wait() const { s_->done.wait(); }

  /// Continuation when the circuit closes (inline if already closed).
  template <class F>
  void when_done(F f) {
    s_->done.when_bound([f = std::move(f)](const Closed&) mutable { f(); });
  }

 private:
  std::shared_ptr<State> s_;
};

}  // namespace motif::rt
