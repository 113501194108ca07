// Deterministic fault injection and classified run outcomes.
//
// The paper sells motifs as "archives of expertise" a user can adopt
// without re-deriving the parallel logic — which is only credible if the
// expertise includes behaviour under partial failure. A FaultPlan is a
// seed-driven schedule of injected faults that a Machine executes while
// running any motif: kill node i after its k-th task, drop / duplicate /
// delay cross-node posts with configured probabilities, and throw a
// synthetic exception inside a chosen task. Every decision is a pure
// function of (plan seed, sender node, per-node event ordinal), so a run
// whose task order is deterministic (fixed seed, one worker, or any
// workload whose per-node task order does not depend on cross-node
// timing) replays the exact same faults — and the tracer records each
// injection as a `fault` event for inspection.
//
// RunOutcome is the classification side: Machine::wait_idle_for() returns
// one instead of hanging (a lost node starves a dataflow variable
// forever) or rethrowing blindly, so supervisors (motifs/supervise.hpp)
// and the chaos test tier can react to *why* a run stopped.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/metrics.hpp"

namespace motif::rt {

using NodeId = std::uint32_t;  // mirrors machine.hpp (kept header-light)

/// The synthetic exception a FaultPlan throw spec raises inside a task.
/// Distinguishable from user-code failures so supervisors can treat
/// injected chaos as retryable.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what)
      : std::runtime_error(what) {}
};

/// What a plan decided to do with one cross-node post.
enum class PostFault : std::uint8_t { None, Drop, Duplicate, Delay };

/// A deterministic, seed-driven fault schedule. Empty plan = no faults
/// (the default MachineConfig). All probabilities apply per cross-node
/// post; decisions are drawn from splitmix64(seed, sender, ordinal), so
/// they are independent of wall-clock time and worker count.
struct FaultPlan {
  std::uint64_t seed = 0x5EEDFA17ull;

  /// Per-cross-node-post probabilities, evaluated in this order (one
  /// fault at most per post): drop, duplicate, delay.
  double drop = 0.0;       ///< message silently lost
  double duplicate = 0.0;  ///< message delivered twice
  double delay = 0.0;      ///< message re-queued behind later arrivals

  /// Kill node `node` immediately after it executes its `after_tasks`-th
  /// task (1-based, cumulative since Machine construction). A dead node
  /// discards its queue and every later post addressed to it.
  struct Kill {
    NodeId node = 0;
    std::uint64_t after_tasks = 1;
  };
  std::vector<Kill> kills;

  /// Throw InjectedFault in place of node `node`'s `on_task`-th task
  /// (1-based, cumulative): the task's body never runs, exactly as if it
  /// died mid-flight before producing its outputs.
  struct Throw {
    NodeId node = 0;
    std::uint64_t on_task = 1;
  };
  std::vector<Throw> throws;

  bool enabled() const {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0 || !kills.empty() ||
           !throws.empty();
  }

  /// Decision for the `nth` (1-based) cross-node post sent by `from`.
  /// Pure: same (seed, from, nth) ⇒ same answer.
  PostFault post_fault(NodeId from, std::uint64_t nth) const;

  /// Same shape, different randomness: the per-attempt reseeding used by
  /// supervised retry, so a probabilistic fault need not recur on the
  /// next attempt.
  FaultPlan reseeded(std::uint64_t attempt) const;

  /// A ready-made chaos plan (mild drop/dup/delay) for sweeps and the
  /// motifsh --fault-seed flag.
  static FaultPlan chaos(std::uint64_t seed);
};

/// Why a deadline-bounded wait returned.
enum class RunStatus : std::uint8_t {
  Completed,         ///< quiesced; no task failed
  TaskFailed,        ///< quiesced after a task threw (error captured)
  Stalled,           ///< quiesced but the awaited result never arrived
  DeadlineExceeded,  ///< still busy (or blocked) when the deadline hit
  NodeLost,          ///< stalled or timed out with at least one dead node
};

const char* to_string(RunStatus s);

/// Structured result of Machine::wait_idle_for and the supervised
/// wrappers: a classification instead of a hang or a bare rethrow.
struct RunOutcome {
  RunStatus status = RunStatus::Completed;
  std::exception_ptr error;        ///< set when status == TaskFailed
  std::string error_message;       ///< what() of `error`, for reports
  std::vector<NodeId> lost_nodes;  ///< nodes dead at classification time
  FaultTotals faults;              ///< injections so far on this machine
  /// Names of still-unbound named SVars (see SVar::set_name) — the same
  /// "waiting on X" diagnostic the interpreter's deadlock reporter gives.
  std::string blocked_on;

  bool ok() const { return status == RunStatus::Completed; }

  /// "node-lost (lost: 2; faults: 5; waiting on tree_reduce1.result)"
  std::string to_string() const;
};

/// The one rule for a run that ended without its result: `why` —
/// Stalled when everything went quiet but the result stayed unbound,
/// DeadlineExceeded when the run never went quiet — becomes NodeLost if
/// nodes died, and `blocked_on` names every still-unbound named SVar.
void mark_unfinished(RunOutcome& o, RunStatus why);

/// Thrown by a blocking wait (Machine::wait_result, and every blocking
/// motif through it) when the machine went idle but the awaited result
/// never bound: a fault ate a message or a node died. Carries the
/// outcome refined by mark_unfinished — Stalled, or NodeLost.
class RunIncomplete : public std::runtime_error {
 public:
  explicit RunIncomplete(RunOutcome o);
  const RunOutcome& outcome() const noexcept { return *outcome_; }

 private:
  std::shared_ptr<const RunOutcome> outcome_;  // nothrow copies
};

}  // namespace motif::rt
