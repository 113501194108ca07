#include "runtime/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace rt = motif::rt;

namespace {

rt::LoadSummary summarize_nodes(const std::vector<rt::NodeCounters>& cs) {
  return rt::summarize(cs.size(),
                       [&](std::size_t i) -> const rt::NodeCounters& {
                         return cs[i];
                       });
}

}  // namespace

TEST(Gauge, TracksCurrentAndPeak) {
  rt::Gauge g;
  g.add(10);
  g.add(5);
  EXPECT_EQ(g.current(), 15);
  EXPECT_EQ(g.peak(), 15);
  g.add(-12);
  EXPECT_EQ(g.current(), 3);
  EXPECT_EQ(g.peak(), 15);
  g.reset();
  EXPECT_EQ(g.current(), 0);
  EXPECT_EQ(g.peak(), 0);
}

TEST(Gauge, PeakUnderConcurrency) {
  rt::Gauge g;
  std::vector<std::thread> ts;
  for (int i = 0; i < 8; ++i) {
    ts.emplace_back([&] {
      for (int j = 0; j < 10000; ++j) {
        g.add(1);
        g.add(-1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(g.current(), 0);
  EXPECT_GE(g.peak(), 1);
  EXPECT_LE(g.peak(), 8);
}

TEST(TrackedBytes, RegistersAndReleases) {
  rt::live_bytes().reset();
  {
    rt::TrackedBytes t(1000);
    EXPECT_EQ(rt::live_bytes().current(), 1000);
    {
      rt::TrackedBytes u(500);
      EXPECT_EQ(rt::live_bytes().current(), 1500);
    }
    EXPECT_EQ(rt::live_bytes().current(), 1000);
  }
  EXPECT_EQ(rt::live_bytes().current(), 0);
  EXPECT_EQ(rt::live_bytes().peak(), 1500);
}

TEST(TrackedBytes, CopySharesNothingMoveTransfers) {
  rt::live_bytes().reset();
  rt::TrackedBytes a(100);
  rt::TrackedBytes b = a;  // copy registers its own 100
  EXPECT_EQ(rt::live_bytes().current(), 200);
  rt::TrackedBytes c = std::move(a);
  EXPECT_EQ(rt::live_bytes().current(), 200);
  EXPECT_EQ(a.bytes(), 0u);
  EXPECT_EQ(c.bytes(), 100u);
  (void)b;
}

TEST(TrackedBytes, ResizeAdjustsGauge) {
  rt::live_bytes().reset();
  rt::TrackedBytes t(100);
  t.resize(400);
  EXPECT_EQ(rt::live_bytes().current(), 400);
  t.resize(50);
  EXPECT_EQ(rt::live_bytes().current(), 50);
}

TEST(EvalScope, CountsActiveEvaluations) {
  rt::active_evals().reset();
  {
    rt::EvalScope a;
    EXPECT_EQ(rt::active_evals().current(), 1);
    {
      rt::EvalScope b;
      EXPECT_EQ(rt::active_evals().current(), 2);
    }
  }
  EXPECT_EQ(rt::active_evals().current(), 0);
  EXPECT_EQ(rt::active_evals().peak(), 2);
}

TEST(Summarize, EmptyIsZero) {
  auto s = rt::summarize(0, nullptr);
  EXPECT_EQ(s.total_tasks, 0u);
  EXPECT_EQ(s.imbalance, 0.0);
}

TEST(Summarize, EmptyCountersProduceNoNanOrSentinel) {
  // An empty machine must not divide by counters.size() or leave the
  // min-tracking sentinel behind: every field is a plain zero.
  auto s = summarize_nodes({});
  EXPECT_EQ(s.min_tasks, 0u);
  EXPECT_EQ(s.max_tasks, 0u);
  EXPECT_EQ(s.mean_tasks, 0.0);
  EXPECT_EQ(s.work_imbalance, 0.0);
  EXPECT_EQ(s.virtual_speedup, 0.0);
  EXPECT_EQ(s.hops_per_remote, 0.0);
  EXPECT_EQ(s.makespan, 0u);
}

TEST(Summarize, ZeroMakespanGuardsVirtualSpeedup) {
  // Tasks ran but reported no virtual work: makespan is 0 and the
  // speedup/imbalance ratios must stay 0 instead of dividing by it.
  std::vector<rt::NodeCounters> cs(3);
  cs[0].tasks = 4;
  cs[1].tasks = 4;
  cs[2].tasks = 4;
  auto s = summarize_nodes(cs);
  EXPECT_EQ(s.total_work, 0u);
  EXPECT_EQ(s.makespan, 0u);
  EXPECT_EQ(s.virtual_speedup, 0.0);
  EXPECT_EQ(s.work_imbalance, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_tasks, 4.0);
}

TEST(Summarize, ComputesAggregates) {
  std::vector<rt::NodeCounters> cs(4);
  cs[0].tasks = 10;
  cs[1].tasks = 20;
  cs[2].tasks = 30;
  cs[3].tasks = 40;
  cs[0].posts_remote = 5;
  cs[1].posts_local = 7;
  auto s = summarize_nodes(cs);
  EXPECT_EQ(s.total_tasks, 100u);
  EXPECT_EQ(s.max_tasks, 40u);
  EXPECT_EQ(s.min_tasks, 10u);
  EXPECT_DOUBLE_EQ(s.mean_tasks, 25.0);
  EXPECT_DOUBLE_EQ(s.imbalance, 1.6);
  EXPECT_EQ(s.remote_msgs, 5u);
  EXPECT_EQ(s.local_msgs, 7u);
}
