// Fault injection and classified outcomes (runtime/fault.hpp): the
// deterministic FaultPlan lottery, replayability, dead-node semantics,
// wait_idle_for classification and the abandon_pending / shutdown
// lifecycle.
#include "runtime/fault.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/machine.hpp"
#include "runtime/metrics.hpp"
#include "runtime/svar.hpp"
#include "runtime/trace.hpp"

namespace rt = motif::rt;
using namespace std::chrono_literals;

namespace {

/// A deterministic cross-node cascade: node 0 seeds one message per peer;
/// every delivery re-posts to the next node until `depth` hops are spent.
/// All posts after the seed are node-to-node, so the fault lottery
/// applies; with workers=1 per-node task order is deterministic and a
/// plan replays bit-for-bit.
void cascade(rt::Machine& m, std::atomic<std::uint64_t>& delivered,
             int depth) {
  const std::uint32_t n = m.node_count();
  m.post(0, [&m, &delivered, n, depth] {
    for (std::uint32_t peer = 1; peer < n; ++peer) {
      // Recursive hop: runs on `peer`, forwards to (peer+1)%n.
      struct Hop {
        static void go(rt::Machine& mm, std::atomic<std::uint64_t>& d,
                       std::uint32_t at, int left) {
          d.fetch_add(1, std::memory_order_relaxed);
          if (left == 0) return;
          const std::uint32_t next = (at + 1) % mm.node_count();
          mm.post(next, [&mm, &d, next, left] {
            go(mm, d, next, left - 1);
          });
        }
      };
      m.post(peer, [&m, &delivered, peer, depth] {
        Hop::go(m, delivered, peer, depth);
      });
    }
  });
}

/// Fault events (kind, name, peer, ordinal) from a drained trace,
/// timestamps excluded — the replayable part.
std::vector<std::string> fault_events(const rt::TraceLog& log) {
  std::vector<std::string> out;
  for (std::size_t t = 0; t < log.tracks.size(); ++t) {
    for (const auto& e : log.tracks[t].events) {
      if (e.kind != rt::TraceEventKind::Fault) continue;
      out.push_back(log.tracks[t].name + ":" + e.name + ":peer=" +
                    std::to_string(e.peer) + ":ord=" + std::to_string(e.id));
    }
  }
  return out;
}

}  // namespace

TEST(FaultPlan, DecisionsArePure) {
  rt::FaultPlan p = rt::FaultPlan::chaos(1234);
  for (std::uint64_t nth = 1; nth <= 200; ++nth) {
    for (rt::NodeId from = 0; from < 4; ++from) {
      EXPECT_EQ(p.post_fault(from, nth), p.post_fault(from, nth));
    }
  }
  // A different seed gives a different decision stream somewhere.
  rt::FaultPlan q = p;
  q.seed ^= 0x9E3779B97F4A7C15ull;
  bool differs = false;
  for (std::uint64_t nth = 1; nth <= 500 && !differs; ++nth) {
    differs = p.post_fault(0, nth) != q.post_fault(0, nth);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, ReseededChangesSeedOnly) {
  rt::FaultPlan p = rt::FaultPlan::chaos(7);
  p.kills.push_back({2, 10});
  rt::FaultPlan r = p.reseeded(3);
  EXPECT_NE(r.seed, p.seed);
  EXPECT_EQ(r.drop, p.drop);
  ASSERT_EQ(r.kills.size(), 1u);
  EXPECT_EQ(r.kills[0].node, 2u);
  // Deterministic: same attempt, same derived seed.
  EXPECT_EQ(p.reseeded(3).seed, r.seed);
  EXPECT_NE(p.reseeded(4).seed, r.seed);
}

TEST(Fault, BitReplaySameSeedSamePlanSameRun) {
  // Two machines, identical config (1 worker => deterministic per-node
  // task order): identical fault totals AND identical injected-fault
  // trace events, field for field (timestamps excluded).
  auto run = [](std::uint64_t seed, rt::FaultTotals& totals,
                std::vector<std::string>& events, std::uint64_t& count) {
    rt::FaultPlan plan = rt::FaultPlan::chaos(seed);
    plan.drop = 0.15;  // high enough to fire on a short run
    plan.delay = 0.15;
    plan.duplicate = 0.15;
    rt::Machine m({.nodes = 4, .workers = 1, .faults = plan});
    m.start_trace();
    std::atomic<std::uint64_t> delivered{0};
    cascade(m, delivered, 40);
    m.wait_idle();
    m.stop_trace();
    totals = m.load_summary().faults;
    events = fault_events(m.drain_trace());
    count = delivered.load();
  };
  rt::FaultTotals t1, t2;
  std::vector<std::string> e1, e2;
  std::uint64_t c1 = 0, c2 = 0;
  run(42, t1, e1, c1);
  run(42, t2, e2, c2);
  EXPECT_GT(t1.total(), 0u) << "plan never fired; raise depth/probs";
  EXPECT_EQ(t1.drops, t2.drops);
  EXPECT_EQ(t1.duplicates, t2.duplicates);
  EXPECT_EQ(t1.delays, t2.delays);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(e1, e2);

  // And a different seed genuinely reroutes the run. The event-level
  // comparison needs tracing compiled in: with MOTIF_TRACING=OFF both
  // sides drain to empty and the inequality is vacuously false.
#if MOTIF_TRACING
  rt::FaultTotals t3;
  std::vector<std::string> e3;
  std::uint64_t c3 = 0;
  run(43, t3, e3, c3);
  EXPECT_NE(e1, e3);
#endif
}

TEST(Fault, DropLosesTheMessage) {
  rt::FaultPlan plan;
  plan.drop = 1.0;
  rt::Machine m({.nodes = 2, .workers = 2, .faults = plan});
  std::atomic<int> arrived{0};
  // External posts are not cross-node sends — only the node-to-node hop
  // is subject to the lottery.
  m.post(0, [&m, &arrived] {
    m.post(1, [&arrived] { arrived.fetch_add(1); });
  });
  m.wait_idle();
  EXPECT_EQ(arrived.load(), 0);
  EXPECT_EQ(m.load_summary().faults.drops, 1u);
}

TEST(Fault, DuplicateDeliversTwice) {
  rt::FaultPlan plan;
  plan.duplicate = 1.0;
  rt::Machine m({.nodes = 2, .workers = 2, .faults = plan});
  std::atomic<int> arrived{0};
  m.post(0, [&m, &arrived] {
    m.post(1, [&arrived] { arrived.fetch_add(1); });
  });
  m.wait_idle();
  EXPECT_EQ(arrived.load(), 2);
  EXPECT_EQ(m.load_summary().faults.duplicates, 1u);
}

TEST(Fault, DelayStillDelivers) {
  rt::FaultPlan plan;
  plan.delay = 1.0;
  rt::Machine m({.nodes = 2, .workers = 2, .faults = plan});
  std::atomic<int> arrived{0};
  m.post(0, [&m, &arrived] {
    for (int i = 0; i < 8; ++i) {
      m.post(1, [&arrived] { arrived.fetch_add(1); });
    }
  });
  m.wait_idle();
  EXPECT_EQ(arrived.load(), 8);  // delayed, never lost
  EXPECT_EQ(m.load_summary().faults.delays, 8u);
}

TEST(Fault, KillStopsTheNodeAndShedsItsMail) {
  rt::FaultPlan plan;
  plan.kills.push_back({1, 1});  // node 1 dies after its first task
  rt::Machine m({.nodes = 2, .workers = 2, .faults = plan});
  std::atomic<int> ran{0};
  m.post(1, [&ran] { ran.fetch_add(1); });
  m.wait_idle();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_FALSE(m.node_alive(1));
  EXPECT_EQ(m.lost_nodes(), std::vector<rt::NodeId>{1});
  EXPECT_EQ(m.load_summary().faults.kills, 1u);

  // Mail to the dead node is discarded (dead-drop), and the machine
  // still quiesces instead of hanging.
  m.post(1, [&ran] { ran.fetch_add(1); });
  rt::RunOutcome o = m.wait_idle_for(5s);
  EXPECT_EQ(o.status, rt::RunStatus::Completed);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_GE(m.load_summary().faults.dead_drops, 1u);
  ASSERT_EQ(o.lost_nodes.size(), 1u);

  // Revive: the node serves again; the exact-count kill cannot re-fire
  // (its cumulative task count is already past).
  m.revive(1);
  EXPECT_TRUE(m.node_alive(1));
  m.post(1, [&ran] { ran.fetch_add(1); });
  m.wait_idle();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(m.load_summary().faults.kills, 1u);
}

TEST(Fault, ThrowInjectsClassifiedTaskFailure) {
  rt::FaultPlan plan;
  plan.throws.push_back({0, 2});  // node 0's second task throws instead
  rt::Machine m({.nodes = 2, .workers = 2, .faults = plan});
  std::atomic<int> ran{0};
  m.post(0, [&ran] { ran.fetch_add(1); });
  m.post(0, [&ran] { ran.fetch_add(1); });
  m.post(0, [&ran] { ran.fetch_add(1); });
  rt::RunOutcome o = m.wait_idle_for(5s);
  EXPECT_EQ(o.status, rt::RunStatus::TaskFailed);
  EXPECT_NE(o.error_message.find("injected fault"), std::string::npos);
  EXPECT_EQ(ran.load(), 2);  // task 2 replaced by the throw
  EXPECT_EQ(m.load_summary().faults.throws, 1u);
  ASSERT_TRUE(o.error);
  EXPECT_THROW(std::rethrow_exception(o.error), rt::InjectedFault);
}

TEST(Fault, WaitIdleForClassifiesDeadline) {
  rt::Machine m({.nodes = 1, .workers = 1});
  m.post(0, [] { std::this_thread::sleep_for(200ms); });
  rt::RunOutcome o = m.wait_idle_for(1ms);
  EXPECT_EQ(o.status, rt::RunStatus::DeadlineExceeded);
  m.wait_idle();  // drain before destruction checks
  EXPECT_TRUE(m.wait_idle_for(1s).ok());
}

TEST(Fault, BlockedOnReportsNamedUnboundSvars) {
  rt::Machine m({.nodes = 1, .workers = 1});
  rt::SVar<int> answer;
  answer.set_name("fault_test.answer");
  rt::RunOutcome o = m.wait_result_for(answer, 1s);
  EXPECT_EQ(o.status, rt::RunStatus::Stalled);
  EXPECT_EQ(o.blocked_on, "fault_test.answer");
  EXPECT_NE(o.to_string().find("waiting on fault_test.answer"),
            std::string::npos);
  try {
    (void)m.wait_result(answer);
    ADD_FAILURE() << "wait_result returned an unbound variable";
  } catch (const rt::RunIncomplete& e) {
    EXPECT_EQ(e.outcome().status, rt::RunStatus::Stalled);
    EXPECT_EQ(e.outcome().blocked_on, "fault_test.answer");
  }

  // A wait that hits its deadline names the variable too; a wait for no
  // variable names none.
  m.post(0, [] { std::this_thread::sleep_for(200ms); });
  o = m.wait_result_for(answer, 1ms);
  EXPECT_EQ(o.status, rt::RunStatus::DeadlineExceeded);
  EXPECT_EQ(o.blocked_on, "fault_test.answer");
  o = m.wait_idle_for(1ms);
  EXPECT_EQ(o.status, rt::RunStatus::DeadlineExceeded);
  EXPECT_EQ(o.blocked_on, "");
  m.wait_idle();

  // Once bound, the variable is no longer reported.
  answer.bind(7);
  o = m.wait_result_for(answer, 1s);
  EXPECT_TRUE(o.ok()) << o.to_string();
  EXPECT_EQ(o.blocked_on, "");
  EXPECT_EQ(m.wait_result(answer), 7);

  // An unnamed variable stalls with an empty report.
  rt::SVar<int> unnamed;
  o = m.wait_result_for(unnamed, 1s);
  EXPECT_EQ(o.status, rt::RunStatus::Stalled);
  EXPECT_EQ(o.blocked_on, "");
}

TEST(Fault, StallReportNamesOnlyTheAwaitedVariable) {
  // Two Machines in one process, each stalled on its own named variable:
  // each report names the variable its wait was for, and no other.
  rt::Machine ma({.nodes = 1, .workers = 1});
  rt::Machine mb({.nodes = 1, .workers = 1});
  rt::SVar<int> va;
  rt::SVar<int> vb;
  va.set_name("a.result");
  vb.set_name("b.result");
  const auto expect_only = [](rt::Machine& m, const rt::SVar<int>& v,
                              const std::string& own,
                              const std::string& other) {
    const rt::RunOutcome o = m.wait_result_for(v, 1s);
    EXPECT_EQ(o.status, rt::RunStatus::Stalled);
    EXPECT_EQ(o.blocked_on, own);
    EXPECT_EQ(o.to_string().find(other), std::string::npos) << o.to_string();
    try {
      (void)m.wait_result(v);
      ADD_FAILURE() << "wait_result returned an unbound variable";
    } catch (const rt::RunIncomplete& e) {
      EXPECT_EQ(e.outcome().blocked_on, own);
      EXPECT_NE(std::string(e.what()).find(own), std::string::npos)
          << e.what();
      EXPECT_EQ(std::string(e.what()).find(other), std::string::npos)
          << e.what();
    }
  };
  expect_only(mb, vb, "b.result", "a.result");
  expect_only(ma, va, "a.result", "b.result");
}

TEST(Fault, AbandonPendingDiscardsQueuedWork) {
  rt::Machine m({.nodes = 2, .workers = 1});
  std::atomic<int> ran{0};
  m.post(0, [&m, &ran] {
    std::this_thread::sleep_for(50ms);
    for (int i = 0; i < 100; ++i) {
      m.post(1, [&ran] { ran.fetch_add(1); });
    }
  });
  m.abandon_pending();
  const int after_abandon = ran.load();
  // Machine is reusable afterwards.
  m.post(0, [&ran] { ran.fetch_add(1000); });
  m.wait_idle();
  EXPECT_EQ(ran.load(), after_abandon + 1000);
}

TEST(Fault, AbandonPendingClearsPendingError) {
  rt::Machine m({.nodes = 1, .workers = 1});
  m.post(0, [] { throw std::runtime_error("abandoned"); });
  m.abandon_pending();
  EXPECT_NO_THROW(m.wait_idle());
}

TEST(Fault, PostAfterShutdownIsDiscardedAndCounted) {
  rt::Machine m({.nodes = 2, .workers = 2});
  std::atomic<int> ran{0};
  m.post(0, [&ran] { ran.fetch_add(1); });
  m.shutdown();
  EXPECT_EQ(ran.load(), 1);
  const std::uint64_t before = m.load_summary().discarded_posts;
  m.post(0, [&ran] { ran.fetch_add(1); });
  m.post(1, [&ran] { ran.fetch_add(1); });
  EXPECT_EQ(m.load_summary().discarded_posts, before + 2);
  EXPECT_EQ(ran.load(), 1);
  m.shutdown();  // idempotent
}

TEST(Fault, DroppedTaskErrorIsCountedAtDestruction) {
  const std::uint64_t before = rt::dropped_task_errors().load();
  {
    rt::Machine m({.nodes = 1, .workers = 1});
    m.post(0, [] { throw std::runtime_error("uncollected"); });
    // No wait_idle: the destructor must log the error, not swallow it.
  }
  EXPECT_EQ(rt::dropped_task_errors().load(), before + 1);
}

TEST(Fault, ConcurrentWaitIdleDeliversErrorToExactlyOne) {
  rt::Machine m({.nodes = 1, .workers = 1});
  m.post(0, [] {
    std::this_thread::sleep_for(20ms);
    throw std::runtime_error("one of you gets this");
  });
  std::atomic<int> caught{0};
  auto waiter = [&m, &caught] {
    try {
      m.wait_idle();
    } catch (const std::runtime_error&) {
      caught.fetch_add(1);
    }
  };
  std::thread a(waiter), b(waiter);
  a.join();
  b.join();
  EXPECT_EQ(caught.load(), 1);
}

TEST(Fault, SetFaultPlanSwapsPlansBetweenRuns) {
  rt::Machine m({.nodes = 2, .workers = 2});
  std::atomic<int> arrived{0};
  auto hop = [&m, &arrived] {
    m.post(0, [&m, &arrived] {
      m.post(1, [&arrived] { arrived.fetch_add(1); });
    });
    m.wait_idle();
  };
  hop();
  EXPECT_EQ(arrived.load(), 1);  // no plan: nothing dropped
  rt::FaultPlan all_drop;
  all_drop.drop = 1.0;
  m.set_fault_plan(all_drop);
  hop();
  EXPECT_EQ(arrived.load(), 1);  // dropped
  m.set_fault_plan(rt::FaultPlan{});
  hop();
  EXPECT_EQ(arrived.load(), 2);  // healthy again
}

TEST(Fault, RunOutcomeToStringMentionsStatusAndFaults) {
  rt::RunOutcome o;
  o.status = rt::RunStatus::NodeLost;
  o.lost_nodes = {2};
  o.faults.kills = 1;
  o.blocked_on = "tree_reduce2.result";
  const std::string s = o.to_string();
  EXPECT_NE(s.find("node-lost"), std::string::npos);
  EXPECT_NE(s.find("tree_reduce2.result"), std::string::npos);
}
