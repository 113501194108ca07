#include "runtime/machine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "runtime/stream.hpp"
#include "runtime/svar.hpp"

namespace rt = motif::rt;

TEST(Machine, RunsAPostedTask) {
  rt::Machine m({.nodes = 2, .workers = 2});
  std::atomic<int> x{0};
  m.post(0, [&] { x = 42; });
  m.wait_idle();
  EXPECT_EQ(x.load(), 42);
}

TEST(Machine, DefaultsAreSane) {
  rt::Machine m;
  EXPECT_GE(m.node_count(), 1u);
  EXPECT_GE(m.worker_count(), 1u);
  EXPECT_LE(m.worker_count(), m.node_count());
}

TEST(Machine, CurrentNodeInsideTask) {
  rt::Machine m({.nodes = 3, .workers = 2});
  EXPECT_EQ(rt::Machine::current_node(), rt::kNoNode);
  rt::SVar<rt::NodeId> seen;
  m.post(2, [&] { seen.bind(rt::Machine::current_node()); });
  m.wait_idle();
  EXPECT_EQ(seen.get(), 2u);
}

TEST(Machine, PerNodeFifoOrder) {
  rt::Machine m({.nodes = 1, .workers = 4});
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    m.post(0, [&order, i] { order.push_back(i); });  // safe: node 0 is sequential
  }
  m.wait_idle();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[i], i);
}

TEST(Machine, NodesAreSequentialNoOverlap) {
  // Two tasks on the same node must never run concurrently even with many
  // workers. Tasks on different nodes may.
  rt::Machine m({.nodes = 4, .workers = 4});
  std::atomic<int> in_node0{0};
  std::atomic<bool> overlap{false};
  for (int i = 0; i < 500; ++i) {
    m.post(0, [&] {
      if (in_node0.fetch_add(1) != 0) overlap = true;
      for (int k = 0; k < 50; ++k) asm volatile("");
      in_node0.fetch_sub(1);
    });
  }
  m.wait_idle();
  EXPECT_FALSE(overlap.load());
}

TEST(Machine, MoreNodesThanWorkersAllRun) {
  rt::Machine m({.nodes = 64, .workers = 2});
  std::atomic<int> ran{0};
  for (rt::NodeId n = 0; n < 64; ++n) {
    m.post(n, [&] { ran.fetch_add(1); });
  }
  m.wait_idle();
  EXPECT_EQ(ran.load(), 64);
}

TEST(Machine, TasksCanPostMoreTasks) {
  rt::Machine m({.nodes = 4, .workers = 4});
  std::atomic<int> count{0};
  // A task tree of depth 10, fanout 2 -> 2^11 - 1 tasks.
  std::function<void(int)> spawn = [&](int depth) {
    count.fetch_add(1);
    if (depth == 0) return;
    m.post(m.random_node(), [&, depth] { spawn(depth - 1); });
    m.post(m.random_node(), [&, depth] { spawn(depth - 1); });
  };
  m.post(0, [&] { spawn(10); });
  m.wait_idle();
  EXPECT_EQ(count.load(), (1 << 11) - 1);
}

TEST(Machine, WaitIdleRethrowsTaskException) {
  rt::Machine m({.nodes = 2, .workers = 2});
  m.post(0, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(m.wait_idle(), std::runtime_error);
  // The error is delivered once; the machine remains usable.
  std::atomic<int> x{0};
  m.post(1, [&] { x = 1; });
  m.wait_idle();
  EXPECT_EQ(x.load(), 1);
}

TEST(Machine, RemoteAndLocalMessageCounting) {
  rt::Machine m({.nodes = 2, .workers = 1});
  rt::SVar<bool> done;
  m.post(0, [&] {
    m.post(0, [] {});     // local
    m.post(1, [] {});     // remote
    m.post(1, [] {});     // remote
    done.bind(true);
  });
  m.wait_idle();
  EXPECT_EQ(m.counters(0).posts_local.load(), 1u);
  EXPECT_EQ(m.counters(0).posts_remote.load(), 2u);
  EXPECT_EQ(m.counters(1).recv_remote.load(), 2u);
}

TEST(Machine, ExternalPostsAreNotMessages) {
  rt::Machine m({.nodes = 2, .workers = 1});
  m.post(0, [] {});
  m.post(1, [] {});
  m.wait_idle();
  EXPECT_EQ(m.counters(0).posts_local.load(), 0u);
  EXPECT_EQ(m.counters(0).posts_remote.load(), 0u);
  EXPECT_EQ(m.counters(1).posts_remote.load(), 0u);
}

TEST(Machine, RandomNodeIsDeterministicPerSeed) {
  auto draw = [](std::uint64_t seed) {
    rt::Machine m({.nodes = 8, .workers = 1, .batch = 64, .seed = seed});
    std::vector<rt::NodeId> picks;
    rt::SVar<bool> done;
    m.post(0, [&] {
      for (int i = 0; i < 32; ++i) picks.push_back(m.random_node());
      done.bind(true);
    });
    m.wait_idle();
    return picks;
  };
  EXPECT_EQ(draw(1), draw(1));
  EXPECT_NE(draw(1), draw(2));
}

TEST(Machine, RandomNodeCoversAllNodes) {
  rt::Machine m({.nodes = 8, .workers = 1});
  std::set<rt::NodeId> seen;
  rt::SVar<bool> done;
  m.post(0, [&] {
    for (int i = 0; i < 1000; ++i) seen.insert(m.random_node());
    done.bind(true);
  });
  m.wait_idle();
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Machine, PostLocalFromOutsideGoesToNodeZero) {
  rt::Machine m({.nodes = 4, .workers = 2});
  rt::SVar<rt::NodeId> where;
  m.post_local([&] { where.bind(rt::Machine::current_node()); });
  m.wait_idle();
  EXPECT_EQ(where.get(), 0u);
}

TEST(Machine, BatchLimitPreservesFairnessAcrossNodes) {
  // With batch=1 and one worker, two busy nodes must interleave.
  rt::Machine m({.nodes = 2, .workers = 1, .batch = 1});
  std::vector<int> trace;  // single worker -> no data race
  for (int i = 0; i < 10; ++i) {
    m.post(0, [&trace] { trace.push_back(0); });
    m.post(1, [&trace] { trace.push_back(1); });
  }
  m.wait_idle();
  ASSERT_EQ(trace.size(), 20u);
  // Node 0 cannot complete all 10 of its tasks before node 1 starts.
  int first_one = -1, last_zero = -1;
  for (int i = 0; i < 20; ++i) {
    if (trace[i] == 1 && first_one < 0) first_one = i;
    if (trace[i] == 0) last_zero = i;
  }
  EXPECT_LT(first_one, last_zero);
}

TEST(Machine, WaitIdleWithNoWorkReturnsImmediately) {
  rt::Machine m({.nodes = 2, .workers = 2});
  m.wait_idle();
  SUCCEED();
}

TEST(Machine, ManyTasksStress) {
  rt::Machine m({.nodes = 16, .workers = 4});
  std::atomic<std::uint64_t> sum{0};
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    m.post(static_cast<rt::NodeId>(i % 16), [&sum, i] { sum.fetch_add(i); });
  }
  m.wait_idle();
  EXPECT_EQ(sum.load(), std::uint64_t(kN) * (kN - 1) / 2);
  EXPECT_EQ(m.load_summary().total_tasks, std::uint64_t(kN));
}

TEST(Machine, DestructorDrainsOutstandingWork) {
  std::atomic<int> ran{0};
  {
    rt::Machine m({.nodes = 4, .workers = 2});
    for (int i = 0; i < 1000; ++i) {
      m.post(i % 4, [&] { ran.fetch_add(1); });
    }
    // no wait_idle: destructor must drain
  }
  EXPECT_EQ(ran.load(), 1000);
}

TEST(Machine, VirtualWorkMakespan) {
  rt::Machine m({.nodes = 2, .workers = 1});
  m.post(0, [&] { m.add_work(30); });
  m.post(1, [&] { m.add_work(10); });
  m.wait_idle();
  auto s = m.load_summary();
  EXPECT_EQ(s.total_work, 40u);
  EXPECT_EQ(s.makespan, 30u);
  EXPECT_DOUBLE_EQ(s.work_imbalance, 1.5);
  EXPECT_NEAR(s.virtual_speedup, 40.0 / 30.0, 1e-12);
}

TEST(Machine, LoadSummaryImbalance) {
  rt::Machine m({.nodes = 4, .workers = 1});
  for (int i = 0; i < 100; ++i) m.post(0, [] {});
  m.wait_idle();
  auto s = m.load_summary();
  EXPECT_EQ(s.total_tasks, 100u);
  EXPECT_EQ(s.max_tasks, 100u);
  EXPECT_EQ(s.min_tasks, 0u);
  EXPECT_DOUBLE_EQ(s.imbalance, 4.0);
  m.reset_counters();
  EXPECT_EQ(m.load_summary().total_tasks, 0u);
}
