// Divide and conquer: the one "split, place, join" engine of the library
// (the paper's conclusion lists divide and conquer among the motif areas).
// Tree-Reduce-1 is one (Section 3.4): a problem is split, every part but
// the first is shipped to another processor, the first continues where
// the split happened, and the results are combined there. An instance
// supplies only what differs:
//   is_base(P)             — stop splitting?
//   base(P)       -> R     — solve a base case (sequential leaf work)
//   divide(P)     -> parts — split into subproblems (any sized
//                            random-access container; none: combine at
//                            once)
//   combine(P,[R]) -> R    — merge subresults (ordered as divide returned)
//   place(P)      -> node  — where a shipped part runs
// Instances: divide_and_conquer (random places), parallel_merge_sort
// (motifs/sort.hpp), tree_reduce1 and static_tree_reduce
// (motifs/tree_reduce.hpp) and count_solutions (motifs/search.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/machine.hpp"
#include "runtime/metrics.hpp"
#include "runtime/svar.hpp"

namespace motif {

namespace detail {

/// One divide-and-conquer call. Every task it posts holds it by
/// shared_ptr: the async entry point returns before the run ends, and a
/// run whose messages are lost frees it when its last task is dropped.
template <class P, class R, class IsBase, class Base, class Divide,
          class Combine, class Place>
struct Dnc : std::enable_shared_from_this<
                 Dnc<P, R, IsBase, Base, Divide, Combine, Place>> {
  /// The join of one split: a counter over its ordered results. Its own
  /// result goes to slot `slot` of `parent`, or to `result` at the root.
  struct Join {
    P problem;
    std::vector<R> results;
    std::atomic<std::uint32_t> missing;
    std::shared_ptr<Join> parent;
    std::uint32_t slot;
    rt::NodeId home;  // the node that split
  };

  Dnc(rt::Machine& mm, IsBase ib, Base b, Divide d, Combine c, Place pl)
      : m(mm), is_base(std::move(ib)), base(std::move(b)),
        divide(std::move(d)), combine(std::move(c)), place(std::move(pl)) {}

  rt::Machine& m;
  IsBase is_base;
  Base base;
  Divide divide;
  Combine combine;
  Place place;
  rt::SVar<R> result;

  // A Duplicate fault runs a task's callable twice, on one node; each
  // task's `ran` flag makes the repeat a no-op, so a slot is filled once.
  void post(rt::NodeId n, P p, std::shared_ptr<Join> to, std::uint32_t slot) {
    m.post(n, [self = this->shared_from_this(), p = std::move(p),
               to = std::move(to), slot, ran = false]() mutable {
      if (!std::exchange(ran, true)) self->solve(std::move(p), to, slot);
    });
  }

  void solve(P p, const std::shared_ptr<Join>& to, std::uint32_t slot) {
    if (is_base(p)) {
      deliver(to, slot, base(std::move(p)));
      return;
    }
    auto parts = divide(p);
    const auto n = static_cast<std::uint32_t>(std::size(parts));
    if (n == 0) {  // nothing to wait for
      deliver(to, slot, combine(p, std::vector<R>{}));
      return;
    }
    const rt::NodeId home = rt::Machine::current_node();
    auto join = std::make_shared<Join>(std::move(p), std::vector<R>(n), n,
                                       to, slot, home);
    // Parts 1..n-1 are shipped first (the paper's "reduce(R,RV)@random"),
    // then part 0 continues on this node as its own process.
    for (std::uint32_t i = 1; i < n; ++i) {
      post(place(parts[i]), std::move(parts[i]), join, i);
    }
    post(home, std::move(parts[0]), std::move(join), 0);
  }

  void deliver(const std::shared_ptr<Join>& to, std::uint32_t slot, R r) {
    if (!to) {
      result.bind(std::move(r));
      return;
    }
    to->results[slot] = std::move(r);
    if (to->missing.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    // The combine is INITIATED here — in the paper, "each reduce message
    // received by a server causes the initiation of an independent
    // computation" — so its evaluation scope opens now, even though the
    // task may queue behind others on the home node. This is exactly the
    // pile-up Tree-Reduce-2 eliminates (E2).
    m.post(to->home, [self = this->shared_from_this(), j = to,
                      scope = std::make_shared<rt::EvalScope>(),
                      ran = false]() mutable {
      if (std::exchange(ran, true)) return;
      self->deliver(j->parent, j->slot,
                    self->combine(j->problem, std::move(j->results)));
    });
  }
};

/// The engine's one entry point: posts `problem` to node `at` and returns
/// the result variable without waiting.
template <class P, class R, class... Ops>
rt::SVar<R> dnc_async(rt::Machine& m, rt::NodeId at, P problem, Ops... ops) {
  auto engine = std::make_shared<Dnc<P, R, Ops...>>(m, std::move(ops)...);
  engine->post(at, std::move(problem), nullptr, 0);
  return engine->result;
}

}  // namespace detail

/// Divide and conquer, non-blocking: the root and every shipped part run
/// on random processors. Returns the result variable (the form
/// supervised() drives).
template <class P, class R, class IsBase, class Base, class Divide,
          class Combine>
rt::SVar<R> divide_and_conquer_async(rt::Machine& m, P problem,
                                     IsBase is_base, Base base,
                                     Divide divide, Combine combine) {
  return detail::dnc_async<P, R>(
      m, m.random_node(), std::move(problem), std::move(is_base),
      std::move(base), std::move(divide), std::move(combine),
      [&m](const P&) { return m.random_node(); });
}

/// Divide and conquer; blocks the calling (external) thread
/// (Machine::wait_result: a lost part throws rt::RunIncomplete).
template <class P, class R, class IsBase, class Base, class Divide,
          class Combine>
R divide_and_conquer(rt::Machine& m, P problem, IsBase is_base, Base base,
                     Divide divide, Combine combine) {
  return m.wait_result(divide_and_conquer_async<P, R>(
      m, std::move(problem), std::move(is_base), std::move(base),
      std::move(divide), std::move(combine)));
}

}  // namespace motif
