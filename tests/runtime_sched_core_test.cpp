// Invariant tests for the lock-free scheduling core (DESIGN.md §10).
//
// The rebuilt core (Vyukov mailboxes + Chase-Lev deques + eventcount)
// must preserve the old mutex core's observable contract exactly:
//   - per-node FIFO delivery (per producer),
//   - at most one task of a node active at any instant,
//   - replayable fault ordinals under a fixed seed,
//   - wait_idle / shutdown / peak-queue semantics.
// These are property-style stress tests: N posts ≫ W workers, many
// producers, run under TSAN via the `machine` ctest label.

#include "runtime/machine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/svar.hpp"

namespace rt = motif::rt;

namespace {

// --- per-node FIFO + single activation under load --------------------------

TEST(SchedCore, FifoAndSingleActivationUnderManyProducers) {
  constexpr std::uint32_t kNodes = 8;
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 4000;  // N ≫ W

  rt::Machine m({.nodes = kNodes, .workers = 4});

  // One slot per (node, producer): the producer's last sequence number
  // observed by that node. FIFO per producer means it only ever
  // increments by exactly one.
  struct Slot {
    std::atomic<std::uint64_t> last{0};
  };
  std::vector<Slot> slots(kNodes * kProducers);
  std::vector<std::atomic<int>> active(kNodes);   // single-activation probe
  std::atomic<std::uint64_t> fifo_violations{0};
  std::atomic<std::uint64_t> overlap_violations{0};
  std::atomic<std::uint64_t> executed{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t seq = 1; seq <= kPerProducer; ++seq) {
        const auto node = static_cast<rt::NodeId>(seq % kNodes);
        m.post(node, [&, p, node, seq] {
          if (active[node].fetch_add(1, std::memory_order_acq_rel) != 0) {
            overlap_violations.fetch_add(1, std::memory_order_relaxed);
          }
          auto& last = slots[node * kProducers + p].last;
          const std::uint64_t prev =
              last.load(std::memory_order_relaxed);
          // This producer posts seq = node, node+kNodes, ... to `node`,
          // so FIFO per producer means prev is the previous seq in that
          // arithmetic progression (or 0 for the first).
          if (prev != 0 && prev + kNodes != seq) {
            fifo_violations.fetch_add(1, std::memory_order_relaxed);
          }
          if (prev == 0 && seq >= kNodes && seq != node + kNodes &&
              seq != node) {
            fifo_violations.fetch_add(1, std::memory_order_relaxed);
          }
          last.store(seq, std::memory_order_relaxed);
          executed.fetch_add(1, std::memory_order_relaxed);
          active[node].fetch_sub(1, std::memory_order_acq_rel);
        });
      }
    });
  }
  for (auto& t : producers) t.join();
  m.wait_idle();

  EXPECT_EQ(fifo_violations.load(), 0u);
  EXPECT_EQ(overlap_violations.load(), 0u);
  EXPECT_EQ(executed.load(), kPerProducer * kProducers);

  // The machine's own accounting agrees with ground truth.
  std::uint64_t counted = 0;
  for (rt::NodeId n = 0; n < kNodes; ++n) {
    counted += m.counters(n).tasks.load(std::memory_order_relaxed);
  }
  EXPECT_EQ(counted, kPerProducer * kProducers);
}

TEST(SchedCore, FifoHoldsAcrossWorkerHandoffChains) {
  // A hot post-run-post chain between two nodes exercises the release
  // protocol, the direct-handoff slot, and re-arm continue; the per-node
  // order must still be exactly the post order.
  rt::Machine m({.nodes = 2, .workers = 4});
  constexpr int kHops = 20000;
  std::atomic<int> hops{0};
  std::atomic<int> order_violations{0};
  rt::SVar<bool> done;
  struct Hop {
    rt::Machine* m;
    std::atomic<int>* hops;
    std::atomic<int>* bad;
    rt::SVar<bool>* done;
    int expect;
    void operator()() {
      const int h = hops->fetch_add(1, std::memory_order_acq_rel);
      if (h != expect) bad->fetch_add(1, std::memory_order_relaxed);
      if (h + 1 >= kHops) {
        done->bind(true);
        return;
      }
      m->post(static_cast<rt::NodeId>((h + 1) & 1),
              Hop{m, hops, bad, done, h + 1});
    }
  };
  m.post(0, Hop{&m, &hops, &order_violations, &done, 0});
  m.wait_idle();
  EXPECT_TRUE(done.get());
  EXPECT_EQ(order_violations.load(), 0);
  EXPECT_EQ(hops.load(), kHops);
}

// --- fault-seed replay ------------------------------------------------------

// Deterministic fault scenario: ping-pong pairs where a single token
// bounces A→B→A…, so each sender's cross-post ordinals are a pure
// function of the chain — independent of worker interleaving. drop,
// delay, throw and kill are all safe here; `duplicate` is NOT (a dup
// forks the chain into two concurrently-running halves, making later
// ordinals schedule-dependent), so dups get their own one-directional
// test below.
rt::FaultTotals run_pingpong(std::uint64_t seed) {
  rt::FaultPlan plan;
  plan.seed = seed;
  plan.drop = 0.05;
  plan.delay = 0.10;
  plan.throws.push_back({1, 7});
  plan.kills.push_back({3, 40});
  rt::Machine m({.nodes = 4, .workers = 4, .seed = 77, .faults = plan});

  struct Bounce {
    rt::Machine* m;
    rt::NodeId self, peer;
    int remaining;
    void operator()() const {
      if (remaining <= 0) return;
      m->post(peer, Bounce{m, peer, self, remaining - 1});
    }
  };
  // Two independent pairs: 0↔1 and 2↔3.
  m.post(0, Bounce{&m, 0, 1, 200});
  m.post(2, Bounce{&m, 2, 3, 200});
  m.wait_idle_for(std::chrono::seconds(60));
  return m.fault_totals();
}

TEST(SchedCore, FaultSeedReplayIsBitIdentical) {
  const auto a = run_pingpong(0xFEEDBEEF);
  const auto b = run_pingpong(0xFEEDBEEF);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.dead_drops, b.dead_drops);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.delays, b.delays);
  EXPECT_EQ(a.kills, b.kills);
  EXPECT_EQ(a.throws, b.throws);
  EXPECT_GT(a.total(), 0u);  // the scenario actually injected something
  // The lottery is genuinely seed-driven: over 1000 ordinals, two seeds
  // must disagree somewhere (checked on the pure function, where the
  // result does not depend on how early a fault ends the ping-pong).
  rt::FaultPlan p1, p2;
  p1.drop = p2.drop = 0.05;
  p1.seed = 0xFEEDBEEF;
  p2.seed = 0xABAD1DEA;
  bool differs = false;
  for (std::uint64_t nth = 1; nth <= 1000 && !differs; ++nth) {
    differs = p1.post_fault(0, nth) != p2.post_fault(0, nth);
  }
  EXPECT_TRUE(differs);
}

TEST(SchedCore, DuplicateOrdinalsReplayOnOneDirectionalChain) {
  // A→B only, driven by a single sequential chain on A, B never posts:
  // A's ordinals are 1..N regardless of scheduling, so the dup lottery
  // replays exactly.
  auto run = [](std::uint64_t seed) {
    rt::FaultPlan plan;
    plan.seed = seed;
    plan.duplicate = 0.10;
    rt::Machine m({.nodes = 2, .workers = 4, .faults = plan});
    struct Send {
      rt::Machine* m;
      int remaining;
      void operator()() const {
        m->post(1, [] {});
        if (remaining > 1) m->post(0, Send{m, remaining - 1});
      }
    };
    m.post(0, Send{&m, 300});
    m.wait_idle();
    return m.fault_totals().duplicates;
  };
  const auto a = run(42);
  EXPECT_EQ(a, run(42));
  EXPECT_GT(a, 0u);
}

// --- shutdown ---------------------------------------------------------------

TEST(SchedCore, ConcurrentShutdownIsIdempotent) {
  for (int round = 0; round < 20; ++round) {
    rt::Machine m({.nodes = 4, .workers = 4});
    std::atomic<int> ran{0};
    for (int i = 0; i < 200; ++i) {
      m.post(static_cast<rt::NodeId>(i % 4), [&] {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    std::vector<std::thread> killers;
    for (int i = 0; i < 4; ++i) {
      killers.emplace_back([&] { m.shutdown(); });
    }
    for (auto& t : killers) t.join();
    // shutdown drains before stopping: nothing already accepted is lost.
    EXPECT_EQ(ran.load(), 200);
    // Post-shutdown posts are discarded, not enqueued, and counted.
    m.post(0, [&] { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 200);
    EXPECT_GE(m.discarded_posts(), 1u);
    m.shutdown();  // explicit second call: still a no-op
  }
}

// --- instrumentation --------------------------------------------------------

TEST(SchedCore, SchedStatsCountFastPathHits) {
  rt::Machine m({.nodes = 2, .workers = 2});
  // A burst at one node from outside: nearly every post after the first
  // finds the node already scheduled — the mailbox fast path.
  std::atomic<int> ran{0};
  for (int i = 0; i < 2000; ++i) {
    m.post(0, [&] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  m.wait_idle();
  EXPECT_EQ(ran.load(), 2000);
  const auto s = m.sched_stats();
  EXPECT_GT(s.mailbox_fast_hits, 0u);
  m.reset_counters();
  EXPECT_EQ(m.sched_stats().mailbox_fast_hits, 0u);
}

}  // namespace
