// Single-assignment variables: the synchronisation primitive of the Strand
// execution model that the paper's motifs are built on (Section 2.1).
//
// An SVar<T> starts unbound. It can be bound exactly once; a second bind is
// a run-time error, mirroring Strand's "attempts to assign to a variable
// that has a value are signaled as run-time errors". Consumers either block
// (outside the machine) or register a continuation with when_bound (inside
// the machine — worker threads must never block on data, CP.42/CP.4).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/cell.hpp"

namespace motif::rt {

namespace svar_detail {

/// Process-wide registry of named, still-unbound SVar cells. The runtime's
/// deadline classifier (Machine::wait_idle_for) reads it to report *which*
/// dataflow variable a stalled run is waiting on — the Machine-level
/// counterpart of the interpreter's "(waiting on X)" deadlock diagnostic.
struct NameRegistry {
  std::mutex m;
  std::map<std::string, std::size_t> pending;  // name -> unbound cell count

  static NameRegistry& instance() {
    static NameRegistry r;
    return r;
  }
  void add(const std::string& name) {
    std::lock_guard lock(m);
    ++pending[name];
  }
  void remove(const std::string& name) {
    std::lock_guard lock(m);
    auto it = pending.find(name);
    if (it != pending.end() && --it->second == 0) pending.erase(it);
  }
};

}  // namespace svar_detail

/// Names of every named SVar that is still unbound, sorted. Diagnostics
/// only: the set is sampled without stopping writers.
inline std::vector<std::string> unbound_svar_names() {
  auto& reg = svar_detail::NameRegistry::instance();
  std::vector<std::string> out;
  std::lock_guard lock(reg.m);
  out.reserve(reg.pending.size());
  for (const auto& [name, n] : reg.pending) {
    if (n > 0) out.push_back(name);
  }
  return out;
}

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
  bool try_bind(T value) const {
    if (!s_->cell.try_bind(std::move(value))) return false;
    std::lock_guard lock(s_->name_m);
    s_->deregister_name();
    return true;
  }

  /// Names this variable for stall diagnostics: while it stays unbound,
  /// the name appears in unbound_svar_names() and thus in
  /// RunOutcome::blocked_on. Renaming an unbound variable replaces the
  /// registration; naming a bound one is a no-op. Returns *this.
  const SVar& set_name(std::string name) const {
    // A binder publishes before it takes name_m to deregister, so either
    // this sees the binding or the binder sees this registration.
    std::lock_guard lock(s_->name_m);
    if (s_->cell.bound()) return *this;
    s_->deregister_name();
    s_->name = std::move(name);
    if (!s_->name.empty()) {
      svar_detail::NameRegistry::instance().add(s_->name);
    }
    return *this;
  }

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
    std::mutex name_m;
    std::string name;  // guarded by name_m; nonempty while registered

    /// Caller holds `name_m` (or is the last owner, in ~State).
    void deregister_name() {
      if (!name.empty()) {
        svar_detail::NameRegistry::instance().remove(name);
        name.clear();
      }
    }
    ~State() { deregister_name(); }
  };
  std::shared_ptr<State> s_;
};

}  // namespace motif::rt
