// Chaos tier (ctest -L chaos): every motif under a swept FaultPlan must
// terminate with a *classified* RunOutcome — never hang — and the
// supervised wrappers must still produce correct values despite injected
// node loss. Deadlines are generous (CI machines are slow); the CI chaos
// job adds an outer watchdog on top.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "align/profile.hpp"
#include "align/sequence.hpp"
#include "motifs/dist_tree_reduce.hpp"
#include "motifs/motifs.hpp"
#include "net/cluster.hpp"
#include "net/transport.hpp"
#include "runtime/fault.hpp"
#include "runtime/machine.hpp"

namespace m = motif;
namespace al = motif::align;
namespace rt = motif::rt;
using namespace std::chrono_literals;

namespace {

constexpr auto kDeadline = 10s;

bool classified(rt::RunStatus s) {
  switch (s) {
    case rt::RunStatus::Completed:
    case rt::RunStatus::TaskFailed:
    case rt::RunStatus::Stalled:
    case rt::RunStatus::DeadlineExceeded:
    case rt::RunStatus::NodeLost:
      return true;
  }
  return false;
}

using IntTree = m::Tree<int, int>;

IntTree::Ptr balanced_tree(int depth, int& next) {
  if (depth == 0) return IntTree::leaf(next++);
  auto l = balanced_tree(depth - 1, next);
  auto r = balanced_tree(depth - 1, next);
  return IntTree::node(0, std::move(l), std::move(r));
}

int expected_sum(int leaves) {
  // Leaves hold 1..leaves (next starts at 1).
  return leaves * (leaves + 1) / 2;
}

struct SumEval {
  int operator()(const int&, const int& a, const int& b) const {
    return a + b;
  }
};

}  // namespace

// --- tree reduce -----------------------------------------------------------

TEST(Chaos, TreeReduceSweepAlwaysClassifies) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    rt::FaultPlan plan = rt::FaultPlan::chaos(seed);
    plan.drop = 0.10;
    rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
    int next = 1;
    auto tree = balanced_tree(4, next);
    rt::SVar<int> out = m::tree_reduce1_async<int, int>(
        mach, tree, SumEval{}, m::MapPolicy::Random);
    rt::RunOutcome o = mach.wait_idle_for(kDeadline);
    ASSERT_TRUE(classified(o.status)) << "seed " << seed;
    ASSERT_NE(o.status, rt::RunStatus::DeadlineExceeded)
        << "seed " << seed << ": " << o.to_string();
    if (o.status == rt::RunStatus::Completed && out.bound()) {
      EXPECT_EQ(out.get(), expected_sum(16)) << "seed " << seed;
    }
  }
}

TEST(Chaos, SupervisedTreeReduce1SurvivesNodeLoss) {
  rt::FaultPlan plan;
  plan.kills.push_back({2, 1});  // node 2 dies after its first task
  rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
  int next = 1;
  auto tree = balanced_tree(4, next);
  m::SuperviseOptions opts;
  opts.deadline = kDeadline;
  auto res = m::supervised_tree_reduce1<int, int>(mach, tree, SumEval{}, opts);
  ASSERT_TRUE(res.ok()) << res.last.to_string();
  EXPECT_EQ(*res.value, expected_sum(16));
  EXPECT_GE(res.attempts, 1u);
  // The supervisor hands the machine back whole.
  EXPECT_TRUE(mach.lost_nodes().empty());
}

TEST(Chaos, SupervisedTreeReduce2SurvivesNodeLoss) {
  // Node 1 dies after its first task. How many tasks a processor runs
  // depends on how the batches in its inbox meet, so a kill late in its
  // count may land on its last task and cost nothing. On a 1,024-leaf
  // tree node 1 labels nodes at every level, and values go back and
  // forth through it until the root, so its first task is early in the
  // run: the loss costs attempt 1, and the retry on a revived machine is
  // what succeeds.
  rt::FaultPlan plan;
  plan.kills.push_back({1, 1});
  rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
  int next = 1;
  auto tree = balanced_tree(10, next);
  m::SuperviseOptions opts;
  opts.deadline = kDeadline;
  auto res = m::supervised_tree_reduce2<int, int>(mach, tree, SumEval{}, opts);
  ASSERT_TRUE(res.ok()) << res.last.to_string();
  EXPECT_EQ(*res.value, expected_sum(1024));
  EXPECT_GE(res.attempts, 2u);
  EXPECT_EQ(mach.load_summary().faults.kills, 1u);
  EXPECT_TRUE(mach.lost_nodes().empty());
}

TEST(Chaos, SupervisedRetryFreesTheLostAttemptsValues) {
  // Every value carries a tracked payload, so live_bytes() counts the
  // values still held anywhere: in either attempt's cells, in queued
  // messages or in the result. Once the result is dropped only the
  // tree's own leaves remain, although the process runs on.
  struct Val {
    int v;
    rt::TrackedBytes bytes{1};
  };
  using ValTree = m::Tree<Val, int>;
  std::function<ValTree::Ptr(int, int&)> build = [&](int depth, int& next) {
    if (depth == 0) return ValTree::leaf(Val{next++});
    auto l = build(depth - 1, next);
    auto r = build(depth - 1, next);
    return ValTree::node(0, std::move(l), std::move(r));
  };
  int next = 1;
  const auto tree = build(10, next);
  const std::int64_t leaves_only = rt::live_bytes().current();
  rt::FaultPlan plan;
  plan.kills.push_back({1, 1});  // as in SupervisedTreeReduce2SurvivesNodeLoss
  rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
  {
    m::SuperviseOptions opts;
    opts.deadline = kDeadline;
    const auto add = [](const int&, const Val& a, const Val& b) {
      return Val{a.v + b.v};
    };
    auto res = m::supervised_tree_reduce2<Val, int>(mach, tree, add, opts);
    ASSERT_TRUE(res.ok()) << res.last.to_string();
    EXPECT_EQ(res.value->v, expected_sum(1024));
    EXPECT_GE(res.attempts, 2u);
  }
  EXPECT_EQ(rt::live_bytes().current(), leaves_only);
}

TEST(Chaos, SupervisedTreeReduce2SurvivesDuplicateAndDelay) {
  // Duplicated and delayed value messages reorder and repeat deliveries
  // but lose nothing: every plan seed must finish on its first attempt
  // with the exact sum. A repeat that lands after its node combined
  // must find the pending slot empty, not complete the node again.
  std::uint64_t duplicates = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    rt::FaultPlan plan;
    plan.seed = seed;
    plan.duplicate = 0.3;
    plan.delay = 0.2;
    rt::Machine mach({.nodes = 4, .workers = 3, .faults = plan});
    int next = 1;
    auto tree = balanced_tree(8, next);
    m::SuperviseOptions opts;
    opts.deadline = kDeadline;
    auto res =
        m::supervised_tree_reduce2<int, int>(mach, tree, SumEval{}, opts);
    ASSERT_TRUE(res.ok()) << "seed " << seed << ": " << res.last.to_string();
    EXPECT_EQ(*res.value, expected_sum(256)) << "seed " << seed;
    EXPECT_EQ(res.attempts, 1u) << "seed " << seed;
    duplicates += mach.load_summary().faults.duplicates;
  }
  EXPECT_GT(duplicates, 0u);
}

// A Tree-Reduce-2 launched from a task on node 1: the launch's own posts
// (the labelling tasks, the leaf batches) are then cross-node and
// eligible for faults.
rt::SVar<int> tree_reduce2_from_task(rt::Machine& mach,
                                     const IntTree::Ptr& tree) {
  rt::SVar<int> out;
  mach.post(1, [&mach, tree, out] {
    m::tree_reduce2_async<int, int>(mach, tree, SumEval{})
        .when_bound([out](const int& v) { out.bind(v); });
  });
  return out;
}

TEST(Chaos, TreeReduce2LaunchedInATaskSurvivesDuplicateAndDelay) {
  // A duplicated labelling task must be a no-op (it would otherwise
  // reset slots that already hold values), and a duplicated batch must
  // not deliver its values twice.
  std::uint64_t duplicates = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    rt::FaultPlan plan;
    plan.seed = seed;
    plan.duplicate = 0.3;
    plan.delay = 0.2;
    rt::Machine mach({.nodes = 4, .workers = 3, .faults = plan});
    int next = 1;
    auto tree = balanced_tree(8, next);
    m::SuperviseOptions opts;
    opts.deadline = kDeadline;
    auto res = m::supervised<int>(
        mach,
        [&tree](rt::Machine& mm, std::uint32_t) {
          return tree_reduce2_from_task(mm, tree);
        },
        opts);
    ASSERT_TRUE(res.ok()) << "seed " << seed << ": " << res.last.to_string();
    EXPECT_EQ(*res.value, expected_sum(256)) << "seed " << seed;
    EXPECT_EQ(res.attempts, 1u) << "seed " << seed;
    duplicates += mach.load_summary().faults.duplicates;
  }
  EXPECT_GT(duplicates, 0u);
}

TEST(Chaos, TreeReduce2DuplicatedLaunchPostsAreNoOps) {
  // Every cross-node post delivered twice, on one worker: the two copies
  // of a message are adjacent in their node's queue. A repeated labelling
  // task or batch must do nothing at all, so each internal node is
  // evaluated exactly once.
  rt::FaultPlan plan;
  plan.duplicate = 1.0;
  rt::Machine mach({.nodes = 4, .workers = 1, .faults = plan});
  int next = 1;
  auto tree = balanced_tree(8, next);
  std::atomic<int> evals{0};
  rt::SVar<int> out;
  mach.post(1, [&mach, &tree, &evals, out] {
    m::tree_reduce2_async<int, int>(mach, tree,
                                    [&evals](const int&, const int& a,
                                             const int& b) {
                                      evals.fetch_add(1);
                                      return a + b;
                                    })
        .when_bound([out](const int& v) { out.bind(v); });
  });
  const rt::RunOutcome o = mach.wait_idle_for(kDeadline);
  ASSERT_TRUE(o.ok()) << o.to_string();
  ASSERT_TRUE(out.bound());
  EXPECT_EQ(out.get(), expected_sum(256));
  EXPECT_EQ(evals.load(), 255);
  EXPECT_GT(mach.load_summary().faults.duplicates, 0u);
}

TEST(Chaos, TreeReduce2ValueBatchesDeliverOnce) {
  // Every cross-node post delivered twice, under independent random
  // labels: both offspring values of a node may then cross processors,
  // in one batch or in two, so a batch delivered a second time would
  // complete its nodes again. A repeated drain must deliver only what
  // its inbox received since: whatever the labels and the fault draws,
  // each internal node is evaluated exactly once and the sum is exact.
  std::uint64_t duplicates = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    rt::FaultPlan plan;
    plan.seed = seed;
    plan.duplicate = 1.0;
    rt::Machine mach(
        {.nodes = 4, .workers = 2, .seed = seed, .faults = plan});
    int next = 1;
    auto tree = balanced_tree(8, next);
    std::atomic<int> evals{0};
    rt::SVar<int> out;
    mach.post(1, [&mach, &tree, &evals, out] {
      m::tree_reduce2_async<int, int>(
          mach, tree,
          [&evals](const int&, const int& a, const int& b) {
            evals.fetch_add(1);
            return a + b;
          },
          m::LabelPolicy::IndependentRandom)
          .when_bound([out](const int& v) { out.bind(v); });
    });
    const rt::RunOutcome o = mach.wait_idle_for(kDeadline);
    ASSERT_TRUE(o.ok()) << "seed " << seed << ": " << o.to_string();
    ASSERT_TRUE(out.bound()) << "seed " << seed;
    EXPECT_EQ(out.get(), expected_sum(256)) << "seed " << seed;
    EXPECT_EQ(evals.load(), 255) << "seed " << seed;
    duplicates += mach.load_summary().faults.duplicates;
  }
  EXPECT_GT(duplicates, 0u);
}

// One Tree-Reduce-2 of `tree` on `mach` under its fault plan, launched
// from a task on node 1 so that every post of the run may be faulted;
// returns the run's engine once the machine is quiet.
std::shared_ptr<m::detail::TR2State<int, int, SumEval>> tree_reduce2_run(
    rt::Machine& mach, const IntTree::Ptr& tree, rt::RunOutcome& outcome) {
  std::shared_ptr<m::detail::TR2State<int, int, SumEval>> st;
  mach.post(1, [&mach, &tree, &st] {
    st = m::detail::tr2_start<int, int>(mach, tree, SumEval{},
                                        m::LabelPolicy::Paper);
  });
  outcome = mach.wait_idle_for(kDeadline);
  return st;
}

TEST(Chaos, TreeReduce2InboxesDeliverEachValueOnce) {
  // Every post duplicated, or every post delayed: drain tasks then run
  // twice, or late and out of order, against inboxes that keep filling.
  // The first attempt must give the exact sum and cross exactly the
  // values a fault-free run with the same labels crosses.
  int next = 1;
  auto tree = balanced_tree(10, next);
  rt::RunOutcome o;
  rt::Machine clean({.nodes = 4, .workers = 3});
  const auto want = tree_reduce2_run(clean, tree, o);
  ASSERT_TRUE(o.ok()) << o.to_string();
  ASSERT_EQ(want->result.get(), expected_sum(1024));
  for (const bool dup : {true, false}) {
    rt::FaultPlan plan;
    (dup ? plan.duplicate : plan.delay) = 1.0;
    rt::Machine mach({.nodes = 4, .workers = 3, .faults = plan});
    const auto st = tree_reduce2_run(mach, tree, o);
    ASSERT_TRUE(o.ok()) << (dup ? "duplicate: " : "delay: ") << o.to_string();
    ASSERT_TRUE(st->result.bound()) << (dup ? "duplicate" : "delay");
    EXPECT_EQ(st->result.get(), expected_sum(1024));
    const m::TR2Stats got = st->stats();
    EXPECT_EQ(got.local_values, want->stats().local_values);
    EXPECT_EQ(got.remote_values, want->stats().remote_values);
    const rt::FaultTotals f = mach.load_summary().faults;
    EXPECT_GT(dup ? f.duplicates : f.delays, 0u);
  }
}

TEST(Chaos, TreeReduce2LaunchDropStallsThenRetryConverges) {
  // Every cross-node post is lost. Launched from a task, that is the
  // launch's own posts. Launched by the caller, whose posts are never
  // faulted, it is every drain task a processor's task posts: a lost
  // drain leaves its inbox marked as scheduled, so no drain is posted to
  // that processor again. Either way the machine goes quiet with the
  // result unbound, which must classify as Stalled, not run into the
  // deadline; and a retry, a fresh launch with fresh inboxes after the
  // stalled one is abandoned, converges.
  int next = 1;
  auto tree = balanced_tree(5, next);
  m::SuperviseOptions opts;
  opts.deadline = kDeadline;
  rt::FaultPlan lossy;
  lossy.drop = 1.0;
  for (const bool in_task : {true, false}) {
    const auto start = [&tree, in_task](rt::Machine& mm,
                                        std::uint32_t attempt) {
      if (attempt > 1) mm.set_fault_plan(rt::FaultPlan{});
      return in_task ? tree_reduce2_from_task(mm, tree)
                     : m::tree_reduce2_async<int, int>(mm, tree, SumEval{});
    };
    {
      rt::Machine mach({.nodes = 4, .workers = 2, .faults = lossy});
      opts.max_attempts = 1;
      auto res = m::supervised<int>(mach, start, opts);
      EXPECT_FALSE(res.ok()) << "in_task " << in_task;
      EXPECT_EQ(res.last.status, rt::RunStatus::Stalled)
          << "in_task " << in_task << ": " << res.last.to_string();
      EXPECT_GT(mach.load_summary().faults.drops, 0u);
    }
    // The same loss on the first attempt only.
    rt::Machine mach({.nodes = 4, .workers = 2, .faults = lossy});
    opts.max_attempts = 3;
    auto res = m::supervised<int>(mach, start, opts);
    ASSERT_TRUE(res.ok()) << "in_task " << in_task << ": "
                          << res.last.to_string();
    EXPECT_EQ(*res.value, expected_sum(32));
    EXPECT_EQ(res.attempts, 2u);
    EXPECT_GT(mach.load_summary().faults.drops, 0u);
  }
}

TEST(Chaos, TreeReduce1EngineIsFreedAfterTotalLoss) {
  // Every cross-node message dies, so TR1's offspring variables are never
  // bound. Once the Machine is gone nothing may still hold the engine: a
  // continuation waiting on a variable that is never bound must not keep
  // that variable, and with it the engine and its eval, alive.
  auto token = std::make_shared<int>(0);
  rt::SVar<int> out;
  {
    const auto eval = [token](const int&, const int& a, const int& b) {
      return a + b;
    };
    rt::FaultPlan plan;
    plan.drop = 1.0;
    rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
    int next = 1;
    auto tree = balanced_tree(4, next);
    out = m::tree_reduce1_async<int, int>(mach, tree, eval);
    const rt::RunOutcome o = mach.wait_idle_for(kDeadline);
    EXPECT_NE(o.status, rt::RunStatus::DeadlineExceeded) << o.to_string();
    EXPECT_GT(mach.load_summary().faults.drops, 0u);
  }
  EXPECT_FALSE(out.bound());
  EXPECT_EQ(token.use_count(), 1);
}

// --- divide and conquer -----------------------------------------------------

namespace {

long fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }

/// fib(n) by divide and conquer; `combine` adds the two subresults.
template <class Combine>
rt::SVar<long> fib_async(rt::Machine& mm, int n, Combine combine) {
  return m::divide_and_conquer_async<int, long>(
      mm, n, [](const int& k) { return k < 2; },
      [](int k) { return static_cast<long>(k); },
      [](const int& k) { return std::array{k - 1, k - 2}; },
      std::move(combine));
}

long add_pair(const int&, std::vector<long> rs) { return rs[0] + rs[1]; }

}  // namespace

TEST(Chaos, SupervisedDivideAndConquerSurvivesNodeLoss) {
  rt::FaultPlan plan;
  plan.kills.push_back({2, 1});  // node 2 dies after its first task
  rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
  m::SuperviseOptions opts;
  opts.deadline = kDeadline;
  auto res = m::supervised<long>(
      mach,
      [](rt::Machine& mm, std::uint32_t) {
        return fib_async(mm, 16, add_pair);
      },
      opts);
  ASSERT_TRUE(res.ok()) << res.last.to_string();
  EXPECT_EQ(*res.value, fib(16));
  EXPECT_EQ(mach.load_summary().faults.kills, 1u);
  EXPECT_TRUE(mach.lost_nodes().empty());
}

TEST(Chaos, DivideAndConquerEngineIsFreedAfterTotalLoss) {
  // Every cross-node message dies, so joins wait for parts that never
  // run. Once the Machine is gone nothing may still hold the engine, and
  // with it the combine and what it captured.
  auto token = std::make_shared<int>(0);
  rt::SVar<long> out;
  {
    rt::FaultPlan plan;
    plan.drop = 1.0;
    rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
    out = fib_async(mach, 12, [token](const int& n, std::vector<long> rs) {
      return add_pair(n, std::move(rs));
    });
    const rt::RunOutcome o = mach.wait_idle_for(kDeadline);
    EXPECT_NE(o.status, rt::RunStatus::DeadlineExceeded) << o.to_string();
    EXPECT_GT(mach.load_summary().faults.drops, 0u);
  }
  EXPECT_FALSE(out.bound());
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Chaos, SupervisedExhaustionHandsTheMachineBack) {
  rt::FaultPlan plan;
  plan.drop = 1.0;  // every cross-node message dies: no attempt can finish
  // Whichever processor runs the first task dies after it.
  for (rt::NodeId n = 0; n < 4; ++n) plan.kills.push_back({n, 1});
  rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
  int next = 1;
  auto tree = balanced_tree(3, next);
  m::SuperviseOptions opts;
  opts.max_attempts = 2;
  opts.deadline = 2s;
  auto res = m::supervised<int>(
      mach,
      [&tree](rt::Machine& mm, std::uint32_t) {
        return m::tree_reduce1_async<int, int>(mm, tree, SumEval{},
                                               m::MapPolicy::Random);
      },
      opts);
  EXPECT_EQ(res.attempts, 2u);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.last.status, rt::RunStatus::Completed);
  EXPECT_GE(mach.load_summary().faults.kills, 1u);
  // Exhausted, the supervisor revives the lost processors and restores
  // the caller's plan, not the last attempt's reseeded one.
  EXPECT_TRUE(mach.lost_nodes().empty());
  EXPECT_EQ(mach.fault_plan().seed, plan.seed);
}

// --- server ----------------------------------------------------------------

TEST(Chaos, ServerJournalRecoversDroppedMessages) {
  // Token-passing ring under message loss: with the journal on, repeated
  // recover_lost() must eventually deliver every hop.
  constexpr std::uint32_t kServers = 4;
  constexpr int kTokens = 8;
  constexpr int kHops = 6;
  rt::FaultPlan plan = rt::FaultPlan::chaos(11);
  plan.drop = 0.25;
  rt::Machine mach({.nodes = kServers, .workers = 2, .faults = plan});
  std::atomic<int> hops_done{0};
  using Msg = std::pair<int, int>;  // token id, hops remaining
  m::ServerNetwork<Msg> net(
      mach, kServers, [&hops_done](auto& ctx, Msg msg) {
        hops_done.fetch_add(1, std::memory_order_relaxed);
        if (msg.second > 0) {
          const std::uint32_t next = ctx.self() % ctx.nodes() + 1;
          ctx.send(next, Msg{msg.first, msg.second - 1});
        }
      });
  net.enable_journal();
  for (int t = 0; t < kTokens; ++t) net.start(1, Msg{t, kHops});
  rt::RunOutcome o = net.wait_for(kDeadline);
  ASSERT_TRUE(classified(o.status));
  // Replay until nothing is left undelivered (each round re-sends from
  // the external thread, which the lottery does not touch, but forwarded
  // hops can be dropped again — hence the loop).
  int rounds = 0;
  while (net.recover_lost() > 0) {
    ASSERT_LT(++rounds, 64) << "journal replay did not converge";
    o = net.wait_for(kDeadline);
    ASSERT_TRUE(classified(o.status));
  }
  // Every hop of every token ran at least once (duplicates allowed: the
  // plan may double-deliver, and replay re-sends lost mail).
  EXPECT_GE(hops_done.load(), kTokens * (kHops + 1));
  EXPECT_GT(mach.load_summary().faults.drops, 0u) << "plan never fired";
}

TEST(Chaos, ServerSurvivesServerCrash) {
  // Kill one server mid-run: wait_for classifies instead of hanging, and
  // recovery revives the node and replays its discarded mailbox.
  constexpr std::uint32_t kServers = 3;
  rt::FaultPlan plan;
  plan.kills.push_back({1, 2});  // server 2 (node 1) dies
  rt::Machine mach({.nodes = kServers, .workers = 2, .faults = plan});
  std::atomic<int> handled{0};
  m::ServerNetwork<int> net(mach, kServers, [&handled](auto& ctx, int n) {
    handled.fetch_add(1, std::memory_order_relaxed);
    if (n > 0) ctx.send(ctx.self() % ctx.nodes() + 1, n - 1);
  });
  net.enable_journal();
  net.start(2, 12);  // a 13-hop chain through the ring, via the victim
  rt::RunOutcome o = net.wait_for(kDeadline);
  ASSERT_TRUE(classified(o.status));
  int rounds = 0;
  while (net.recover_lost() > 0) {
    ASSERT_LT(++rounds, 64);
    o = net.wait_for(kDeadline);
    ASSERT_TRUE(classified(o.status));
  }
  EXPECT_GE(handled.load(), 13);
  EXPECT_TRUE(mach.lost_nodes().empty());  // recover_lost revived it
}

// --- scheduler -------------------------------------------------------------

TEST(Chaos, SchedulerRunForClassifiesWorkerLoss) {
  // The DAG is shaped so the outcome does not depend on how the machine
  // interleaves workers (32 independent jobs did: which worker node runs
  // how many is a scheduling accident, so a task-count kill spec may
  // never fire). A dependency chain admits exactly one outstanding job
  // at a time, which makes the manager's dispatch rotation — and hence
  // each worker node's task count — fully deterministic:
  //
  //   c0→c1→...→c6: the rotation gives worker node 1 jobs c0, c3, c6,
  //     so the kill {node 1, after 3 tasks} fires right after c6's body
  //     (its completion message is already on the wire — kills strike
  //     after a task, not during).
  //   c6 releases THREE fan jobs at once: the manager hands f7, f8 to
  //     the two parked workers, and — the queue still being non-empty —
  //     answers node 1's own request with f9. Node 1 is dead: f9 is a
  //     dead-drop, and the tail (depending on all three) never releases.
  rt::FaultPlan plan;
  plan.kills.push_back({1, 3});  // worker node 1 dies after its 3rd task
  rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
  m::Scheduler sched(mach);
  std::atomic<int> done{0};
  const auto body = [&done] { done.fetch_add(1, std::memory_order_relaxed); };
  std::vector<motif::SchedTaskId> chain;
  chain.push_back(sched.submit(body));
  for (int i = 1; i < 7; ++i) {
    chain.push_back(sched.submit(body, {chain.back()}));
  }
  const auto f7 = sched.submit(body, {chain.back()});
  const auto f8 = sched.submit(body, {chain.back()});
  const auto f9 = sched.submit(body, {chain.back()});  // lost to the kill
  sched.submit(body, {f7, f8, f9});                    // never releases
  auto [outcome, msgs] = sched.run_for(kDeadline);
  ASSERT_TRUE(classified(outcome.status));
  ASSERT_NE(outcome.status, rt::RunStatus::DeadlineExceeded)
      << outcome.to_string();
  // The job dispatched to the dead worker (and the tail gated on it) is
  // lost: the run cannot have completed.
  EXPECT_NE(outcome.status, rt::RunStatus::Completed);
  EXPECT_EQ(outcome.blocked_on, "scheduler.done");
  EXPECT_EQ(outcome.lost_nodes, std::vector<rt::NodeId>{1});
  EXPECT_GT(msgs, 0u);
  EXPECT_EQ(done.load(), 9);  // c0..c6 + f7 + f8; f9 and the tail lost
  EXPECT_GE(mach.load_summary().faults.kills, 1u);
}

TEST(Chaos, SchedulerRunForCompletesWithoutFaults) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  m::Scheduler sched(mach);
  std::atomic<int> done{0};
  auto a = sched.submit([&done] { done.fetch_add(1); });
  sched.submit([&done] { done.fetch_add(1); }, {a});
  auto [outcome, msgs] = sched.run_for(kDeadline);
  EXPECT_EQ(outcome.status, rt::RunStatus::Completed);
  EXPECT_EQ(done.load(), 2);
  EXPECT_GT(msgs, 0u);
}

// --- pipeline --------------------------------------------------------------

TEST(Chaos, PipelineStageThrowUnwindsAndRethrows) {
  // A throwing stage must not wedge the chain: its neighbours run dry,
  // the machine quiesces, and run() rethrows the first error.
  rt::Machine mach({.nodes = 3, .workers = 2});
  m::Pipeline<int> p(mach, 1);
  int produced = 0;
  std::atomic<int> consumed{0};
  p.source([&produced]() -> std::optional<int> {
    return produced < 100 ? std::optional<int>(produced++) : std::nullopt;
  });
  p.stage([](int v) {
    if (v == 3) throw std::runtime_error("stage blew up at 3");
    return v * 2;
  });
  p.sink([&consumed](int) { consumed.fetch_add(1); });
  EXPECT_THROW(p.run(), std::runtime_error);
  EXPECT_LT(consumed.load(), 100);
}

TEST(Chaos, PipelineSinkThrowUnwindsAndRethrows) {
  rt::Machine mach({.nodes = 2, .workers = 2});
  m::Pipeline<int> p(mach, 2);
  int produced = 0;
  p.source([&produced]() -> std::optional<int> {
    return produced < 50 ? std::optional<int>(produced++) : std::nullopt;
  });
  p.sink([](int v) {
    if (v == 5) throw std::logic_error("sink refused item 5");
  });
  EXPECT_THROW(p.run(), std::logic_error);
}

TEST(Chaos, PipelineSurvivesDuplicateAndDelay) {
  // Every pipeline hop wakes a step with a cross-node post, so duplicate
  // and delay faults hit the wakes themselves. A duplicated wake only
  // re-reads state, and each stream cell gets at most one waiter, so the
  // output is exact and the task count stays linear in items x steps.
  constexpr int kItems = 400;
  constexpr std::uint64_t kSteps = 4;  // source, 2 stages, sink
  std::uint64_t duplicates = 0;
  std::uint64_t delays = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    rt::FaultPlan plan;
    plan.seed = seed;
    plan.duplicate = 0.3;
    plan.delay = 0.2;
    rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
    m::Pipeline<int> p(mach, 1 + seed % 4);
    int next = 0;
    std::vector<int> got;
    p.source([&next]() -> std::optional<int> {
       return next < kItems ? std::optional<int>(next++) : std::nullopt;
     })
        .stage([](int v) { return v * 3; })
        .stage([](int v) { return v + 1; })
        .sink([&got](int v) { got.push_back(v); });
    ASSERT_EQ(p.run(), static_cast<std::size_t>(kItems)) << "seed " << seed;
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kItems));
    for (int i = 0; i < kItems; ++i) {
      ASSERT_EQ(got[i], i * 3 + 1) << "seed " << seed << " item " << i;
    }
    // One waiter per data or ack cell, each wake at most duplicated:
    // fewer than 2 x 2 x hops x items tasks, plus the initial posts.
    EXPECT_LE(mach.load_summary().total_tasks, 4 * kItems * kSteps)
        << "seed " << seed;
    const rt::FaultTotals f = mach.load_summary().faults;
    duplicates += f.duplicates;
    delays += f.delays;
  }
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(delays, 0u);
}

TEST(Chaos, PipelineDropThrowsNotHangs) {
  // A dropped wake strands its step for good: the machine quiesces with
  // the sink short of the end of the stream, and run() says so.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    rt::FaultPlan plan;
    plan.seed = seed;
    plan.drop = 0.1;
    rt::Machine mach({.nodes = 3, .workers = 2, .faults = plan});
    m::Pipeline<int> p(mach, 2);
    int next = 0;
    p.source([&next]() -> std::optional<int> {
       return next < 500 ? std::optional<int>(next++) : std::nullopt;
     })
        .stage([](int v) { return v + 1; })
        .sink([](int) {});
    EXPECT_THROW(p.run(), std::runtime_error) << "seed " << seed;
    EXPECT_GT(mach.load_summary().faults.drops, 0u) << "seed " << seed;
  }
}

// --- blocking forms under node loss -----------------------------------------

namespace {

/// Runs `call` on a machine whose node 1 is dead: it must throw
/// RunIncomplete with status NodeLost instead of hanging. After
/// revive(1) the same call on the same machine must return; `call`
/// checks the value itself.
template <class Call>
void expect_node_lost_then_recovers(const char* what, Call call) {
  SCOPED_TRACE(what);
  rt::FaultPlan plan;
  plan.kills.push_back({1, 1});  // node 1 dies after its first task
  rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
  mach.post(1, [] {});
  mach.wait_idle();
  ASSERT_EQ(mach.lost_nodes(), std::vector<rt::NodeId>{1});
  try {
    call(mach);
    ADD_FAILURE() << "returned with node 1 dead";
  } catch (const rt::RunIncomplete& e) {
    EXPECT_EQ(e.outcome().status, rt::RunStatus::NodeLost) << e.what();
    EXPECT_EQ(e.outcome().lost_nodes, std::vector<rt::NodeId>{1});
  }
  mach.revive(1);
  call(mach);
}

struct Bits {
  int depth = 0;
  int ones = 0;
};

}  // namespace

TEST(Chaos, BlockingMotifsThrowOnNodeLoss) {
  constexpr std::size_t kN = 1000;
  expect_node_lost_then_recovers("parallel_for", [&](rt::Machine& mach) {
    std::vector<int> hits(kN, 0);
    m::parallel_for(mach, 0, kN, [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(hits, std::vector<int>(kN, 1));
  });
  expect_node_lost_then_recovers("parallel_reduce", [&](rt::Machine& mach) {
    const auto sum = m::parallel_reduce<std::uint64_t>(
        mach, 0, kN, 0, [](std::size_t i) { return std::uint64_t{i}; },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(sum, kN * (kN - 1) / 2);
  });
  expect_node_lost_then_recovers("parallel_inclusive_scan",
                                 [&](rt::Machine& mach) {
    std::vector<long> v(kN, 1);
    m::parallel_inclusive_scan(mach, v, [](long a, long b) { return a + b; });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(v[i], static_cast<long>(i + 1)) << "at " << i;
    }
  });
  expect_node_lost_then_recovers("jacobi_solve", [&](rt::Machine& mach) {
    m::Grid2D g(18, 12, 0.0);
    for (std::size_t c = 0; c < 12; ++c) g.at(0, c) = 100.0;
    m::Grid2D ref = g, tmp = g;
    for (int k = 0; k < 10; ++k) {
      m::jacobi_sweep_seq(ref, tmp);
      std::swap(ref, tmp);
    }
    m::JacobiOptions opts;
    opts.max_iters = 10;
    opts.tolerance = 0.0;
    const auto res = m::jacobi_solve(mach, g, opts);
    EXPECT_EQ(res.iterations, 10u);
    EXPECT_EQ(g.data(), ref.data());
  });
  expect_node_lost_then_recovers("parallel_bfs", [&](rt::Machine& mach) {
    rt::Rng rng(7);
    const auto g = m::Graph::ring_with_chords(300, 60, rng);
    EXPECT_EQ(m::parallel_bfs(mach, g, 0), m::bfs_sequential(g, 0));
  });
  expect_node_lost_then_recovers("parallel_sample_sort",
                                 [&](rt::Machine& mach) {
    rt::Rng rng(11);
    std::vector<int> v(4000);
    for (int& x : v) x = static_cast<int>(rng.below(100000));
    auto want = v;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(m::parallel_sample_sort(mach, v), want);
  });
  int next = 1;
  const auto tree = balanced_tree(10, next);  // 1,024 leaves
  expect_node_lost_then_recovers("tree_reduce1", [&](rt::Machine& mach) {
    EXPECT_EQ((m::tree_reduce1<int, int>(mach, tree, SumEval{})),
              expected_sum(1024));
  });
  expect_node_lost_then_recovers("tree_reduce2", [&](rt::Machine& mach) {
    EXPECT_EQ((m::tree_reduce2<int, int>(mach, tree, SumEval{})),
              expected_sum(1024));
  });
  expect_node_lost_then_recovers("static_tree_reduce", [&](rt::Machine& mach) {
    EXPECT_EQ((m::static_tree_reduce<int, int>(mach, tree, SumEval{})),
              expected_sum(1024));
  });
  expect_node_lost_then_recovers("divide_and_conquer", [&](rt::Machine& mach) {
    const long v = m::divide_and_conquer<int, long>(
        mach, 16, [](const int& k) { return k < 2; },
        [](int k) { return static_cast<long>(k); },
        [](const int& k) { return std::array{k - 1, k - 2}; }, add_pair);
    EXPECT_EQ(v, fib(16));
  });
  expect_node_lost_then_recovers("count_solutions", [&](rt::Machine& mach) {
    // Bit strings of length 12 with six ones: C(12, 6).
    const auto expand = [](const Bits& b) {
      std::vector<Bits> kids;
      if (b.depth < 12) {
        kids.push_back({b.depth + 1, b.ones});
        kids.push_back({b.depth + 1, b.ones + 1});
      }
      return kids;
    };
    const auto count = m::count_solutions<Bits>(
        mach, Bits{}, expand,
        [](const Bits& b) { return b.depth == 12 && b.ones == 6; });
    EXPECT_EQ(count, 924u);
  });
  expect_node_lost_then_recovers("Scheduler::run", [&](rt::Machine& mach) {
    m::Scheduler sched(mach);
    std::atomic<int> ran{0};
    for (int i = 0; i < 12; ++i) {
      sched.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    sched.run();
    EXPECT_EQ(ran.load(), 12);
  });
}

// --- cluster (loopback transport) ------------------------------------------

namespace {

/// Fresh 2-rank loopback cluster with `plan` applied at the net seam.
struct NetChaosRun {
  m::DistTreeReduce2::Result result;
  rt::NetStats totals;  // summed over both ranks
};

NetChaosRun net_chaos_run(const rt::FaultPlan& plan, std::uint64_t seed,
                          std::uint32_t depth = 6) {
  motif::net::LoopbackHub hub(2);
  std::vector<std::unique_ptr<motif::net::Cluster>> cs;
  for (std::uint32_t r = 0; r < 2; ++r) {
    motif::net::ClusterConfig cfg;
    cfg.nodes_per_rank = 2;
    cfg.machine.seed = 0x5EEDull + r;
    cfg.net_faults = plan;
    cs.push_back(std::make_unique<motif::net::Cluster>(hub.endpoint(r), cfg));
  }
  std::vector<std::unique_ptr<m::DistTreeReduce2>> trs;
  for (auto& c : cs) trs.push_back(std::make_unique<m::DistTreeReduce2>(*c));
  cs[1]->start();
  cs[0]->start();
  NetChaosRun out;
  out.result = trs[0]->run(depth, seed, kDeadline);
  for (auto& c : cs) {
    const auto s = c->net_stats();
    out.totals.drops += s.drops;
    out.totals.dups += s.dups;
    out.totals.delays += s.delays;
  }
  return out;
}

}  // namespace

TEST(Chaos, NetDupAndDelayNeverLoseTheResult) {
  // Duplicates and delays reorder or repeat frames but lose none, and the
  // distributed reduce is dup-safe (once-guarded label and leaf frames,
  // per-node slots, try_bind root) — so every run must complete with the
  // right value on the first attempt.
  std::uint64_t dups = 0, delays = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    rt::FaultPlan plan;
    plan.seed = seed;
    plan.duplicate = 0.20;
    plan.delay = 0.20;
    const auto r = net_chaos_run(plan, seed);
    ASSERT_TRUE(r.result.ok) << "seed " << seed << ": "
                             << r.result.outcome.to_string();
    EXPECT_EQ(r.result.value, r.result.expected) << "seed " << seed;
    dups += r.totals.dups;
    delays += r.totals.delays;
  }
  EXPECT_GT(dups + delays, 0u) << "lottery never fired across 24 seeds";
}

TEST(Chaos, NetDropsClassifyAsStalled) {
  // Every cross-rank frame lost: the cluster still goes globally idle
  // (drops are never counted as sent, so termination detection converges)
  // and run() refines Completed-but-unbound to Stalled — never a hang,
  // never DeadlineExceeded.
  rt::FaultPlan plan;
  plan.drop = 1.0;
  const auto r = net_chaos_run(plan, 21);
  ASSERT_FALSE(r.result.ok);
  EXPECT_EQ(r.result.outcome.status, rt::RunStatus::Stalled)
      << r.result.outcome.to_string();
  EXPECT_EQ(r.result.outcome.blocked_on, "dist_tree_reduce2.result");
  EXPECT_GT(r.totals.drops, 0u);
}

TEST(Chaos, NetDropRetryConverges) {
  // Mild loss plus supervisor-style retry with a reseeded plan: each
  // attempt is classified, and some attempt out of 8 gets a clean run
  // through (deterministic given the fixed seeds).
  rt::FaultPlan plan;
  plan.seed = 77;
  plan.drop = 0.05;
  bool succeeded = false;
  for (std::uint32_t attempt = 0; attempt < 8 && !succeeded; ++attempt) {
    const auto r =
        net_chaos_run(plan.reseeded(attempt), 13 + attempt, /*depth=*/4);
    ASSERT_TRUE(classified(r.result.outcome.status)) << "attempt " << attempt;
    ASSERT_NE(r.result.outcome.status, rt::RunStatus::DeadlineExceeded)
        << "attempt " << attempt << ": " << r.result.outcome.to_string();
    if (r.result.ok) {
      EXPECT_EQ(r.result.value, r.result.expected);
      succeeded = true;
    } else {
      EXPECT_EQ(r.result.outcome.status, rt::RunStatus::Stalled)
          << r.result.outcome.to_string();
      EXPECT_GT(r.totals.drops, 0u) << "stalled without a drop?";
    }
  }
  EXPECT_TRUE(succeeded) << "no attempt out of 8 completed";
}

// --- wavefront -------------------------------------------------------------

TEST(Chaos, WavefrontSweepAlwaysClassifies) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    rt::FaultPlan plan = rt::FaultPlan::chaos(seed);
    plan.drop = 0.05;
    rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
    std::atomic<int> cells{0};
    rt::SVar<bool> done = m::wavefront_async(
        mach, 8, 8,
        [&cells](std::size_t, std::size_t) {
          cells.fetch_add(1, std::memory_order_relaxed);
        },
        /*tile=*/2);
    rt::RunOutcome o = mach.wait_idle_for(kDeadline);
    ASSERT_TRUE(classified(o.status)) << "seed " << seed;
    ASSERT_NE(o.status, rt::RunStatus::DeadlineExceeded)
        << "seed " << seed << ": " << o.to_string();
    if (o.status == rt::RunStatus::Completed && done.bound()) {
      EXPECT_EQ(cells.load(), 64) << "seed " << seed;
    } else {
      EXPECT_LT(cells.load(), 64) << "seed " << seed;
    }
  }
}

namespace {

/// Runs an align-node as a task on node 0 of a 4-node machine under
/// `plan` and checks its columns byte for byte against the caller-alone
/// kernel. Returns the tasks each node ran: on nodes 1-3 these are the
/// helpers idle workers took, since nothing else is posted there.
std::array<std::uint64_t, 4> exact_align_node_tasks(const rt::FaultPlan& plan,
                                                    rt::Rng& rng) {
  rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
  const std::string s = al::random_sequence(rng, 300);
  const al::Profile a(s), b(al::evolve(s, 4.0, {}, rng));
  const al::Profile want = al::align_profiles(a, b);
  std::optional<al::Profile> got;
  mach.post(0, [&] { got = al::align_profiles(mach, a, b); });
  const rt::RunOutcome o = mach.wait_idle_for(kDeadline);
  EXPECT_EQ(o.status, rt::RunStatus::Completed) << o.to_string();
  if (!got || got->length() != want.length() ||
      got->depth() != want.depth()) {
    ADD_FAILURE() << "no align-node result of the caller-alone shape";
    return {};
  }
  for (std::size_t i = 0; i < want.length(); ++i) {
    EXPECT_EQ(std::memcmp(got->column(i).data(), want.column(i).data(),
                          sizeof(al::Column)),
              0)
        << "column " << i;
  }
  std::array<std::uint64_t, 4> tasks{};
  for (rt::NodeId n = 0; n < 4; ++n) tasks[n] = mach.counters(n).tasks.load();
  return tasks;
}

/// Runs exact_align_node_tasks rounds, passing each round's tasks to
/// `check`, until an idle worker has taken a helper or 20 s have passed:
/// a round may finish before an idle worker gets a core, more often on a
/// loaded host. Returns the helpers counted.
template <class Check>
std::uint64_t align_rounds_until_helped(const rt::FaultPlan& plan,
                                        rt::Rng& rng, Check check) {
  const auto until = std::chrono::steady_clock::now() + 20s;
  std::uint64_t helpers = 0;
  while (helpers == 0 && !::testing::Test::HasFailure() &&
         std::chrono::steady_clock::now() < until) {
    const auto tasks = exact_align_node_tasks(plan, rng);
    check(tasks);
    helpers += tasks[1] + tasks[2] + tasks[3];
  }
  return helpers;
}

}  // namespace

TEST(Chaos, TiledAlignNodeWithEveryHelperDroppedIsExact) {
  // drop = 1.0 loses every node-to-node post. A helper post comes from an
  // idle worker, outside any node, so the lottery never reaches it:
  // helpers still run, and the align-node returns the caller-alone bytes.
  rt::FaultPlan plan;
  plan.drop = 1.0;
  rt::Rng rng(2024);
  const std::uint64_t helpers =
      align_rounds_until_helped(plan, rng, [](const auto&) {});
  EXPECT_GT(helpers, 0u) << "no idle worker took a helper";
}

TEST(Chaos, TiledAlignNodeWithEveryHelperNodeKilledIsExact) {
  // Every node but the owner's dies after its first task, which can only
  // be a helper. A helper finishes each tile it claims inside that task,
  // and a dead node takes no further helper, so the answer stays exact.
  rt::FaultPlan plan;
  for (rt::NodeId n = 1; n < 4; ++n) plan.kills.push_back({n, 1});
  rt::Rng rng(2025);
  const std::uint64_t helpers =
      align_rounds_until_helped(plan, rng, [](const auto& tasks) {
        for (rt::NodeId n = 1; n < 4; ++n) {
          EXPECT_LE(tasks[n], 1u) << "node " << n << " ran a task after dying";
        }
      });
  EXPECT_GT(helpers, 0u) << "no idle worker took a helper";
}

TEST(Chaos, SupervisedWavefrontSurvivesNodeLoss) {
  rt::FaultPlan plan;
  plan.kills.push_back({3, 1});
  rt::Machine mach({.nodes = 4, .workers = 2, .faults = plan});
  std::atomic<int> cells{0};
  m::SuperviseOptions opts;
  opts.deadline = kDeadline;
  auto res = m::supervised<bool>(
      mach,
      [&cells](rt::Machine& mm, std::uint32_t) {
        return m::wavefront_async(
            mm, 6, 6,
            [&cells](std::size_t, std::size_t) {
              cells.fetch_add(1, std::memory_order_relaxed);
            },
            /*tile=*/2);
      },
      opts);
  ASSERT_TRUE(res.ok()) << res.last.to_string();
  EXPECT_TRUE(*res.value);
  // The final (successful) attempt visits every cell exactly once.
  EXPECT_GE(cells.load(), 36);
}
