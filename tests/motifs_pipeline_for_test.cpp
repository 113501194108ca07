// Pipeline (Figure 1 as a native motif) and parallel_for/reduce utilities.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "motifs/parallel_for.hpp"
#include "motifs/pipeline.hpp"

namespace m = motif;
namespace rt = motif::rt;

TEST(Pipeline, SourceToSink) {
  rt::Machine mach({.nodes = 2, .workers = 2});
  m::Pipeline<int> p(mach);
  int next = 0;
  std::vector<int> got;
  p.source([&]() -> std::optional<int> {
     if (next >= 10) return std::nullopt;
     return next++;
   }).sink([&](int v) { got.push_back(v); });
  EXPECT_EQ(p.run(), 10u);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
}

TEST(Pipeline, StagesTransformInOrder) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  m::Pipeline<long> p(mach, 4);
  long next = 1;
  std::vector<long> got;
  p.source([&]() -> std::optional<long> {
     if (next > 5) return std::nullopt;
     return next++;
   })
      .stage([](long v) { return v * 10; })
      .stage([](long v) { return v + 1; })
      .sink([&](long v) { got.push_back(v); });
  p.run();
  EXPECT_EQ(got, (std::vector<long>{11, 21, 31, 41, 51}));
}

TEST(Pipeline, Capacity1IsSynchronousCoupling) {
  // With capacity 1, the producer can be at most 2 items ahead of the
  // consumer (one on the hop, one in the sink) — Figure 1's sync.
  rt::Machine mach({.nodes = 2, .workers = 2});
  m::Pipeline<int> p(mach, 1);
  std::atomic<int> produced{0}, consumed{0};
  std::atomic<int> max_lead{0};
  int next = 0;
  p.source([&]() -> std::optional<int> {
     if (next >= 500) return std::nullopt;
     produced.fetch_add(1);
     int lead = produced.load() - consumed.load();
     int cur = max_lead.load();
     while (lead > cur && !max_lead.compare_exchange_weak(cur, lead)) {
     }
     return next++;
   }).sink([&](int) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    consumed.fetch_add(1);
  });
  EXPECT_EQ(p.run(), 500u);
  EXPECT_LE(max_lead.load(), 3);
}

TEST(Pipeline, EmptySource) {
  rt::Machine mach({.nodes = 2, .workers = 2});
  m::Pipeline<int> p(mach);
  p.source([]() -> std::optional<int> { return std::nullopt; })
      .sink([](int) { FAIL() << "sink must not run"; });
  EXPECT_EQ(p.run(), 0u);
}

TEST(Pipeline, MissingSourceThrows) {
  rt::Machine mach({.nodes = 1, .workers = 1});
  m::Pipeline<int> p(mach);
  p.sink([](int) {});
  EXPECT_THROW(p.run(), std::logic_error);
}

TEST(Pipeline, LargeVolumeThroughThreeStages) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  m::Pipeline<std::uint64_t> p(mach, 64);
  std::uint64_t next = 0;
  std::uint64_t sum = 0;
  p.source([&]() -> std::optional<std::uint64_t> {
     if (next >= 20000) return std::nullopt;
     return next++;
   })
      .stage([](std::uint64_t v) { return v + 1; })
      .stage([](std::uint64_t v) { return v * 2; })
      .sink([&](std::uint64_t v) { sum += v; });
  EXPECT_EQ(p.run(), 20000u);
  // sum over (i+1)*2 for i in [0,20000)
  EXPECT_EQ(sum, 2 * (20000ull * 19999 / 2 + 20000));
}

TEST(Pipeline, RunsOnOneNodeMachine) {
  // Every step shares node 0 and its single worker: a step that blocked
  // waiting for a neighbour would wedge the whole run (and time out).
  rt::Machine mach({.nodes = 1, .workers = 1});
  m::Pipeline<int> p(mach, 1);
  int next = 0;
  std::vector<int> got;
  auto on_node0 = [](int v) {
    EXPECT_EQ(rt::Machine::current_node(), 0u);
    return v;
  };
  p.source([&]() -> std::optional<int> {
     if (next >= 200) return std::nullopt;
     return next++;
   })
      .stage([&](int v) { return on_node0(v) + 1; })
      .stage([&](int v) { return on_node0(v) * 2; })
      .stage([&](int v) { return on_node0(v) - 1; })
      .sink([&](int v) { got.push_back(on_node0(v)); });
  EXPECT_EQ(p.run(), 200u);
  ASSERT_EQ(got.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(got[i], (i + 1) * 2 - 1);
}

TEST(Pipeline, ZeroCapacityRejected) {
  rt::Machine mach({.nodes = 1, .workers = 1});
  EXPECT_THROW({ m::Pipeline<int> p(mach, 0); }, std::invalid_argument);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  rt::Machine mach({.nodes = 8, .workers = 2});
  std::vector<std::atomic<int>> hits(1000);
  m::parallel_for(mach, 0, 1000,
                  [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRange) {
  rt::Machine mach({.nodes = 2, .workers = 1});
  m::parallel_for(mach, 5, 5, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, SubRange) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  std::atomic<std::size_t> sum{0};
  m::parallel_for(mach, 10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), std::size_t(10 + 11 + 12 + 13 + 14 + 15 + 16 + 17 +
                                    18 + 19));
}

TEST(ParallelFor, MoreNodesThanItems) {
  rt::Machine mach({.nodes = 16, .workers = 2});
  std::atomic<int> count{0};
  m::parallel_for(mach, 0, 3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ParallelReduce, SumMatchesFormula) {
  rt::Machine mach({.nodes = 8, .workers = 2});
  auto sum = m::parallel_reduce<std::uint64_t>(
      mach, 0, 100000, 0ull,
      [](std::size_t i) { return static_cast<std::uint64_t>(i); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, 100000ull * 99999 / 2);
}

TEST(ParallelReduce, EmptyRangeGivesIdentity) {
  rt::Machine mach({.nodes = 2, .workers = 1});
  auto r = m::parallel_reduce<int>(
      mach, 3, 3, -1, [](std::size_t) { return 100; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(r, -1);
}

TEST(ParallelReduce, MaxReduction) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  rt::Rng rng(3);
  std::vector<int> v(5000);
  for (auto& x : v) x = static_cast<int>(rng.below(1 << 20));
  auto mx = m::parallel_reduce<int>(
      mach, 0, v.size(), 0, [&](std::size_t i) { return v[i]; },
      [](int a, int b) { return std::max(a, b); });
  EXPECT_EQ(mx, *std::max_element(v.begin(), v.end()));
}
