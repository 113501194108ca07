// Supervision: retry-with-backoff around any motif invocation, turning
// the runtime's classified RunOutcomes (runtime/fault.hpp) into a policy.
//
// The paper presents motifs as "archives of expertise" — but expertise a
// user can adopt must include behaviour under partial failure, or the
// first lost message silently hangs the caller forever. A Supervised run
// launches the motif NON-blocking (the *_async variants return the result
// variable instead of waiting), bounds the wait with
// Machine::wait_result_for, and on anything other than Completed:
//
//   1. abandons whatever the failed attempt left queued,
//   2. revives killed nodes and reseeds the fault plan (a probabilistic
//      fault need not recur; an exact-count kill cannot re-fire),
//   3. backs off (doubling) and starts a fresh attempt — fresh SVars,
//      fresh messages, so the "at most one communication per offspring
//      pair" invariant of Tree-Reduce-2 holds per attempt, not across
//      attempts (DESIGN.md §9).
//
// When attempts are exhausted the caller's `on_degrade` fallback may
// still produce a value (e.g. a cached or approximate result); otherwise
// the SupervisedResult reports the last classified outcome.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <utility>

#include "motifs/tree_reduce.hpp"
#include "runtime/fault.hpp"
#include "runtime/machine.hpp"
#include "runtime/svar.hpp"

namespace motif {

struct SuperviseOptions {
  std::uint32_t max_attempts = 3;
  /// Per-attempt deadline for wait_result_for.
  std::chrono::nanoseconds deadline = std::chrono::milliseconds(2000);
  /// Sleep before the 2nd attempt; doubles each further attempt. Zero =
  /// immediate retry (the default: simulated faults need no cool-down).
  std::chrono::nanoseconds backoff = std::chrono::nanoseconds(0);
  /// Bring killed nodes back before each retry (and after exhaustion, so
  /// the machine is handed back usable).
  bool revive_lost_nodes = true;
  /// Re-derive the fault plan's seed per attempt (FaultPlan::reseeded) so
  /// probabilistic drop/dup/delay decisions differ across attempts.
  bool reseed_faults = true;
  /// Also retry when a task threw (injected or user error). When false a
  /// TaskFailed outcome ends the loop immediately.
  bool retry_on_task_failure = true;
};

/// Final verdict of a supervised run. `value` is set on success or when
/// on_degrade supplied a fallback (then `degraded` is true); `last` is
/// the classified outcome of the final attempt.
template <class T>
struct SupervisedResult {
  std::optional<T> value;
  std::uint32_t attempts = 0;
  rt::RunOutcome last;
  bool degraded = false;

  bool ok() const { return value.has_value(); }
};

/// Supervises one motif invocation on `m`.
///
/// Start: rt::SVar<T>(rt::Machine&, std::uint32_t attempt) — must LAUNCH
/// the work without blocking (use tree_reduce1_async, tree_reduce2_async,
/// wavefront_async, divide_and_conquer_async or a hand-rolled post) and
/// return the variable the result will bind. Each call must create fresh SVars: an abandoned
/// attempt may still bind its own variables while being drained.
///
/// Classification: a machine that quiesced cleanly but never bound the
/// result (a dropped or dead-dropped message ate a value) is reported as
/// Stalled — or NodeLost when nodes died — by wait_result_for.
template <class T, class Start>
SupervisedResult<T> supervised(
    rt::Machine& m, Start start, SuperviseOptions opts = {},
    std::function<std::optional<T>(const rt::RunOutcome&)> on_degrade = {}) {
  SupervisedResult<T> res;
  const rt::FaultPlan base = m.fault_plan();
  const std::uint32_t max_attempts = std::max<std::uint32_t>(1, opts.max_attempts);
  auto backoff = opts.backoff;
  for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    res.attempts = attempt;
    if (attempt > 1) {
      m.abandon_pending();
      if (opts.reseed_faults && base.enabled()) {
        m.set_fault_plan(base.reseeded(attempt), opts.revive_lost_nodes);
      } else if (opts.revive_lost_nodes) {
        m.set_fault_plan(base, /*revive_dead=*/true);
      }
      if (backoff.count() > 0) {
        std::this_thread::sleep_for(backoff);
        backoff *= 2;
      }
    }
    rt::SVar<T> out = start(m, attempt);
    res.last = m.wait_result_for(out, opts.deadline);
    if (res.last.status == rt::RunStatus::Completed) {
      res.value = out.get();
      return res;
    }
    if (res.last.status == rt::RunStatus::TaskFailed &&
        !opts.retry_on_task_failure) {
      break;
    }
  }
  // Exhausted: hand the machine back quiet and (optionally) whole.
  m.abandon_pending();
  if (opts.revive_lost_nodes) m.set_fault_plan(base, /*revive_dead=*/true);
  if (on_degrade) {
    res.value = on_degrade(res.last);
    res.degraded = res.value.has_value();
  }
  return res;
}

/// Supervised Tree-Reduce-1: correct value despite node loss, message
/// loss, or injected task failure — within the retry budget.
template <class V, class Tag, class Eval>
SupervisedResult<V> supervised_tree_reduce1(
    rt::Machine& m, const typename Tree<V, Tag>::Ptr& tree, Eval eval,
    SuperviseOptions opts = {}, MapPolicy policy = MapPolicy::Random) {
  return supervised<V>(
      m,
      [&tree, &eval, policy](rt::Machine& mm, std::uint32_t) {
        return tree_reduce1_async<V, Tag>(mm, tree, eval, policy);
      },
      opts);
}

/// Supervised Tree-Reduce-2.
template <class V, class Tag, class Eval>
SupervisedResult<V> supervised_tree_reduce2(
    rt::Machine& m, const typename Tree<V, Tag>::Ptr& tree, Eval eval,
    SuperviseOptions opts = {}, LabelPolicy policy = LabelPolicy::Paper) {
  return supervised<V>(
      m,
      [&tree, &eval, policy](rt::Machine& mm, std::uint32_t) {
        return tree_reduce2_async<V, Tag>(mm, tree, eval, policy);
      },
      opts);
}

}  // namespace motif
