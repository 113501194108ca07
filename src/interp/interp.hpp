// The concurrent-logic interpreter: executes programs in the paper's
// high-level language on the simulated multicomputer (runtime/Machine).
//
// Execution model (Section 2.1): "The state of a computation is
// represented by a pool of lightweight processes. Execution proceeds by
// repeatedly selecting and attempting to reduce processes in this pool."
// Each process is a goal term scheduled as a Machine task on some virtual
// node. Reduction tries the rules of the goal's definition in order:
//
//   * head matching is input-only (one-way): a non-variable head position
//     against an unbound caller variable SUSPENDS the rule, never binds
//     the caller;
//   * guards are tests (comparisons, type tests) that may also suspend;
//   * on commit the body goals become new processes — all but the last
//     are posted to the current node, the last is tail-executed;
//   * if no rule succeeds but some suspended, the process suspends on the
//     blocking variable and retries when it is bound;
//   * if every rule fails, the process fails (a run-time error, as in
//     Strand).
//
// Placement annotations: Goal@random posts the process to a random node,
// Goal@E (E an integer expression, 1-based as in the paper) to node E.
//
// Builtins: see the table in builtins.cpp; they include the motif
// primitives of Section 3 — rand_num/2, distribute/3, length/2, merge via
// ports (make_ports/3, send_all/2). A name/arity is exactly one of a
// builtin, a foreign procedure or a program definition: a program that
// defines a builtin's name/arity is rejected at construction.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/machine.hpp"
#include "term/program.hpp"
#include "term/term.hpp"

namespace motif::interp {

/// A process failed (no rule applies), a builtin was misused, or an
/// assignment violated single-assignment.
class InterpError : public std::runtime_error {
 public:
  explicit InterpError(const std::string& what) : std::runtime_error(what) {}
};

struct InterpOptions {
  std::uint32_t nodes = 4;
  std::uint32_t workers = 0;  // 0 = min(nodes, hardware)
  std::uint64_t seed = 0xC0FFEEull;
  /// Deterministic fault schedule forwarded to the Machine (default:
  /// none). Dropped posts lose processes; the run still quiesces and the
  /// deadlock reporter classifies what went unbound (motifsh :faults).
  rt::FaultPlan faults{};
};

struct RunResult {
  std::uint64_t reductions = 0;       // successful rule commits
  std::uint64_t suspensions = 0;      // times a process suspended
  std::uint64_t still_suspended = 0;  // processes stuck at quiescence
  std::vector<std::string> stuck_goals;  // diagnostics (up to 16)
  /// Reductions per process definition ("name/arity"), most active
  /// first — the profile of where high-level coordination time goes.
  std::vector<std::pair<std::string, std::uint64_t>> by_definition;
  rt::LoadSummary load;

  /// Quiescence with suspended processes = no process can ever run again
  /// (their variables have no remaining producer): deadlock.
  bool deadlocked() const { return still_suspended > 0; }
};

/// A foreign (low-level) procedure: the paper's multilingual approach —
/// "low level, computationally-intensive components of applications are
/// implemented in low level languages. The high level language is used
/// primarily to construct parallel programs from these sequential
/// components" (Section 2.1).
///
/// `args` are the goal's arguments with the first `inputs` already
/// guaranteed bound (the interpreter suspends the goal until they are).
/// Deliver outputs through `unify(pattern, value)`; return false to
/// signal failure (raised as InterpError).
struct ForeignCall {
  const std::vector<term::Term>& args;
  const std::function<bool(const term::Term&, const term::Term&)>& unify;
};
using ForeignFn = std::function<bool(const ForeignCall&)>;

class Interp {
 public:
  /// Throws InterpError if `program` defines a builtin's name/arity.
  Interp(term::Program program, InterpOptions options = {});
  ~Interp();

  Interp(const Interp&) = delete;
  Interp& operator=(const Interp&) = delete;

  /// Registers a foreign procedure name/arity. The first `inputs`
  /// arguments are dataflow inputs (the goal suspends until they are
  /// bound); remaining arguments are typically outputs. Must be called
  /// before run(), and the name/arity must not already be a builtin, a
  /// program definition or a foreign procedure; either mistake throws.
  void register_foreign(const std::string& name, std::size_t arity,
                        std::size_t inputs, ForeignFn fn);

  /// Spawns `goal` as a process on node 0 and runs to quiescence.
  /// Variables in `goal` are bound in place; inspect them afterwards.
  RunResult run(const term::Term& goal);

  /// Convenience: parses `goal_src` (e.g. "go(4)"), runs it, and returns
  /// the goal term so callers can inspect bound variables by position.
  std::pair<term::Term, RunResult> run_query(const std::string& goal_src);

  /// Output sink for the write/1, writeln/1 builtins (default: stdout).
  void set_output(std::function<void(const std::string&)> sink);

  rt::Machine& machine() { return *machine_; }

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;  // shared only so waiters can hold it weakly
  std::unique_ptr<rt::Machine> machine_;
};

}  // namespace motif::interp
