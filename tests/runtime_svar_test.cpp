#include "runtime/svar.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace rt = motif::rt;

TEST(SVar, StartsUnbound) {
  rt::SVar<int> v;
  EXPECT_FALSE(v.bound());
  EXPECT_FALSE(v.peek().has_value());
}

TEST(SVar, BindThenGet) {
  rt::SVar<int> v;
  v.bind(42);
  EXPECT_TRUE(v.bound());
  EXPECT_EQ(v.get(), 42);
  EXPECT_EQ(v.peek().value(), 42);
}

TEST(SVar, DoubleBindThrows) {
  rt::SVar<int> v;
  v.bind(1);
  EXPECT_THROW(v.bind(2), rt::SingleAssignmentViolation);
}

TEST(SVar, TryBindReportsOutcome) {
  rt::SVar<std::string> v;
  EXPECT_TRUE(v.try_bind("a"));
  EXPECT_FALSE(v.try_bind("b"));
  EXPECT_EQ(v.get(), "a");
}

TEST(SVar, CopiesShareTheCell) {
  rt::SVar<int> a;
  rt::SVar<int> b = a;
  a.bind(7);
  EXPECT_TRUE(b.bound());
  EXPECT_EQ(b.get(), 7);
  EXPECT_TRUE(a.same_cell(b));
  rt::SVar<int> c;
  EXPECT_FALSE(a.same_cell(c));
}

TEST(SVar, WhenBoundAfterBindRunsInline) {
  rt::SVar<int> v;
  v.bind(5);
  int seen = 0;
  v.when_bound([&](const int& x) { seen = x; });
  EXPECT_EQ(seen, 5);
}

TEST(SVar, WhenBoundBeforeBindRunsOnBind) {
  rt::SVar<int> v;
  int seen = 0;
  v.when_bound([&](const int& x) { seen = x; });
  EXPECT_EQ(seen, 0);
  v.bind(9);
  EXPECT_EQ(seen, 9);
}

TEST(SVar, ManyWaitersAllFire) {
  rt::SVar<int> v;
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    v.when_bound([&](const int&) { count.fetch_add(1); });
  }
  v.bind(1);
  EXPECT_EQ(count.load(), 100);
}

TEST(SVar, BlockingGetAcrossThreads) {
  rt::SVar<int> v;
  std::thread producer([v]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    v.bind(123);
  });
  EXPECT_EQ(v.get(), 123);
  producer.join();
}

TEST(SVar, ConcurrentBindersExactlyOneWins) {
  for (int round = 0; round < 20; ++round) {
    rt::SVar<int> v;
    std::atomic<int> wins{0};
    std::vector<std::thread> ts;
    for (int i = 0; i < 8; ++i) {
      ts.emplace_back([&, i, v]() mutable { wins += v.try_bind(i) ? 1 : 0; });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(wins.load(), 1);
    EXPECT_TRUE(v.bound());
  }
}

TEST(SVar, MoveOnlyValueTypeWorksViaCopyableWrapper) {
  rt::SVar<std::shared_ptr<int>> v;
  v.bind(std::make_shared<int>(77));
  EXPECT_EQ(*v.get(), 77);
}
