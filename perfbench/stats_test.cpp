// Tests of the benchmark's own arithmetic (stats.hpp, spans.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "runtime/machine.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace pb = perfbench;
namespace rt = motif::rt;

namespace {

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

pb::Span span(std::int64_t id, std::int64_t parent, std::int64_t t0_ms,
              std::int64_t t1_ms) {
  pb::Span s;
  s.id = id;
  s.parent = parent;
  s.name = "s" + std::to_string(id);
  s.t0_ns = t0_ms * 1'000'000;
  s.t1_ns = t1_ms * 1'000'000;
  return s;
}

}  // namespace

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(pb::tail_supported(99, 90));
  EXPECT_TRUE(pb::tail_supported(100, 90));
  EXPECT_FALSE(pb::tail_supported(19, 50));
  EXPECT_TRUE(pb::tail_supported(20, 50));
  EXPECT_FALSE(pb::tail_supported(0, 50));
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(pb::percentile(iota(100), 90), 90.0);
  EXPECT_DOUBLE_EQ(pb::percentile(iota(101), 90), 91.0);
  EXPECT_DOUBLE_EQ(pb::percentile({5.0}, 90), 5.0);
  EXPECT_DOUBLE_EQ(pb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
}

TEST(JobLog, OkFracCountsEveryAttempt) {
  pb::JobLog log;
  for (int i = 0; i < 6; ++i) log.ok(10.0 + i);
  log.fail("not_a_variable");
  log.fail("not_a_variable");
  log.fail("wrong_answer");
  EXPECT_EQ(log.attempted(), 9u);
  EXPECT_EQ(log.failed(), 3u);
  EXPECT_DOUBLE_EQ(log.ok_frac(), 6.0 / 9.0);
  // Failed jobs contribute no latency sample.
  EXPECT_EQ(log.latencies_ms().size(), 6u);
  EXPECT_EQ(log.failures().at("not_a_variable"), 2u);
  EXPECT_DOUBLE_EQ(pb::JobLog{}.ok_frac(), 0.0);
}

TEST(JobLog, OnlyAWrongValueMakesARunIncorrect) {
  pb::JobLog jobs, baselines;
  jobs.ok(1.0);
  jobs.fail("not_a_variable");
  baselines.ok(2.0);
  baselines.fail("Stalled");
  baselines.fail("other");
  EXPECT_TRUE(pb::run_correct(jobs, baselines));
  baselines.fail("wrong_answer");
  EXPECT_FALSE(pb::run_correct(jobs, baselines));
  EXPECT_FALSE(pb::run_correct(pb::JobLog{}, pb::JobLog{}));
}

TEST(JobLog, FailureClassSeparatesTheTermRace) {
  EXPECT_EQ(pb::failure_class("not a variable: 1"), "not_a_variable");
  EXPECT_EQ(pb::failure_class("no rule applies: p(1)"), "other");
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren) {
  const pb::Span parent = span(1, -1, 0, 100);
  // Overlapping children [10,40) and [30,60), plus one sticking out of the
  // parent: [90,120) covers only [90,100).
  const pb::Span a = span(2, 1, 10, 40), b = span(3, 1, 30, 60),
                 c = span(4, 1, 90, 120);
  EXPECT_DOUBLE_EQ(pb::self_ms(parent, {&a, &b, &c}), 100.0 - 50.0 - 10.0);
  EXPECT_DOUBLE_EQ(pb::self_ms(parent, {}), 100.0);

  const auto by_name = pb::self_ms_by_name({parent, a, b});
  EXPECT_DOUBLE_EQ(by_name.at("s1"), 50.0);
  EXPECT_DOUBLE_EQ(by_name.at("s2"), 30.0);
}

TEST(Spans, CriticalPathFollowsDependencies) {
  // Leaves-level nodes 2 (10 ms) and 3 (30 ms) feed node 4 (5 ms); node 5
  // (20 ms) and node 4 feed the root 6 (1 ms). Longest chain: 3 -> 4 -> 6.
  pb::Span n2 = span(2, 1, 0, 10), n3 = span(3, 1, 0, 30),
           n4 = span(4, 1, 30, 35), n5 = span(5, 1, 0, 20),
           n6 = span(6, 1, 35, 36);
  n4.deps[0] = 2;
  n4.deps[1] = 3;
  n6.deps[0] = 4;
  n6.deps[1] = 5;
  EXPECT_DOUBLE_EQ(pb::critical_path_ms({n6, n5, n4, n3, n2}), 36.0);
  EXPECT_DOUBLE_EQ(pb::critical_path_ms({}), 0.0);
}

TEST(Counters, PerJobDeltasOnAPersistentMachine) {
  rt::Machine m({.nodes = 4, .workers = 2, .seed = 7});
  auto job = [&m](int per_node) {
    for (rt::NodeId n = 0; n < 4; ++n) {
      for (int k = 0; k < per_node * static_cast<int>(n + 1); ++k) {
        m.post(n, [] {});
      }
    }
    m.wait_idle();
  };
  job(1);  // 1+2+3+4 = 10 tasks before the measured job
  const pb::CounterSnap before = pb::snap(m);
  job(2);  // 2+4+6+8 = 20 tasks
  const pb::CounterDelta d = pb::delta(before, pb::snap(m));
  EXPECT_EQ(d.tasks, 20u);
  EXPECT_DOUBLE_EQ(d.task_imbalance, 8.0 / 5.0);
  EXPECT_EQ(d.remote_msgs, 0u);  // external posts are not node-to-node

  const pb::CounterDelta none = pb::delta(pb::snap(m), pb::snap(m));
  EXPECT_EQ(none.tasks, 0u);
  EXPECT_DOUBLE_EQ(none.task_imbalance, 0.0);
}
