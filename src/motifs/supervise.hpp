// Supervision: bounded retry around any motif invocation, turning
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
//   3. starts a fresh attempt at once — fresh SVars, fresh messages, so
//      the "at most one communication per offspring pair" invariant of
//      Tree-Reduce-2 holds per attempt, not across attempts (DESIGN.md §9).
//
// When attempts are exhausted the machine is handed back quiet, whole and
// with its original fault plan, and the SupervisedResult reports the last
// classified outcome.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>

#include "motifs/tree_reduce.hpp"
#include "runtime/fault.hpp"
#include "runtime/machine.hpp"
#include "runtime/svar.hpp"

namespace motif {

struct SuperviseOptions {
  std::uint32_t max_attempts = 3;
  /// Per-attempt deadline for wait_result_for.
  std::chrono::nanoseconds deadline = std::chrono::milliseconds(2000);
};

/// Final verdict of a supervised run. `value` is set on success; `last`
/// is the classified outcome of the final attempt.
template <class T>
struct SupervisedResult {
  std::optional<T> value;
  std::uint32_t attempts = 0;
  rt::RunOutcome last;

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
/// Stalled — or NodeLost when nodes died — by wait_result_for. Every
/// outcome but Completed, a thrown task included, is retried.
template <class T, class Start>
SupervisedResult<T> supervised(rt::Machine& m, Start start,
                               SuperviseOptions opts = {}) {
  SupervisedResult<T> res;
  const rt::FaultPlan base = m.fault_plan();
  const std::uint32_t max_attempts = std::max<std::uint32_t>(1, opts.max_attempts);
  for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    res.attempts = attempt;
    if (attempt > 1) {
      m.abandon_pending();
      m.set_fault_plan(base.enabled() ? base.reseeded(attempt) : base);
    }
    rt::SVar<T> out = start(m, attempt);
    res.last = m.wait_result_for(out, opts.deadline);
    if (res.last.status == rt::RunStatus::Completed) {
      res.value = out.get();
      return res;
    }
  }
  // Exhausted: hand the machine back quiet and whole.
  m.abandon_pending();
  m.set_fault_plan(base);
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
