// Single-assignment variables: the synchronisation primitive of the Strand
// execution model that the paper's motifs are built on (Section 2.1).
//
// An SVar<T> starts unbound. It can be bound exactly once; a second bind is
// a run-time error, mirroring Strand's "attempts to assign to a variable
// that has a value are signaled as run-time errors". Consumers either block
// (outside the machine) or register a continuation with when_bound (inside
// the machine — worker threads must never block on data, CP.42/CP.4).
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "runtime/cell.hpp"

namespace motif::rt {

/// Thrown when a single-assignment variable is bound twice.
class SingleAssignmentViolation : public std::logic_error {
 public:
  SingleAssignmentViolation()
      : std::logic_error("single-assignment variable bound twice") {}
};

/// A write-once, read-many dataflow variable. Copies share the same cell
/// (handle semantics), so an SVar can be captured by both a producer and
/// any number of consumers.
template <class T>
class SVar {
 public:
  SVar() : s_(std::make_shared<State>()) {}

  /// Binds the variable. Runs (and releases) all registered continuations
  /// on the calling thread. Throws SingleAssignmentViolation if bound.
  /// (const: an SVar handle is freely shareable — the cell carries its
  /// own synchronisation, so binding through a captured-by-value copy in
  /// a const lambda is fine.)
  void bind(T value) const {
    if (!try_bind(std::move(value))) throw SingleAssignmentViolation();
  }

  /// Binds unless already bound; returns whether this call bound it.
  bool try_bind(T value) const { return s_->cell.try_bind(std::move(value)); }

  /// Names this variable for stall reports: a wait for it that ends with
  /// the variable unbound names it in RunOutcome::blocked_on. `name` must
  /// outlive the variable (a literal). Call it before the variable is
  /// handed to whoever waits on it; only the waits read it. Returns *this.
  const SVar& set_name(const char* name) const {
    s_->name = name;
    return *this;
  }

  /// The set_name name; "" for an unnamed variable.
  const char* name() const { return s_->name; }

  bool bound() const { return s_->cell.bound(); }

  /// Blocking read; for use from threads outside the Machine (e.g. main or
  /// a test). The reference stays valid for the life of the cell: the value
  /// is immutable once bound.
  const T& get() const { return s_->cell.wait(); }

  /// Non-blocking read.
  std::optional<T> peek() const {
    if (const T* v = s_->cell.peek()) return *v;
    return std::nullopt;
  }

  /// Registers `f(const T&)` to run when the variable is bound. If it is
  /// already bound, `f` runs inline on this thread. Continuations should be
  /// cheap — typically a Machine::post of the real work.
  template <class F>
  void when_bound(F f) const {
    s_->cell.when_bound(std::move(f));
  }

  /// Identity of the underlying cell; two SVars alias iff they compare equal.
  bool same_cell(const SVar& o) const { return s_ == o.s_; }

 private:
  struct State {
    Cell<T> cell;
    const char* name = "";
  };
  std::shared_ptr<State> s_;
};

}  // namespace motif::rt
