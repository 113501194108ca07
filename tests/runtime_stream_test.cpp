#include "runtime/stream.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace rt = motif::rt;

TEST(Stream, PushThenCollect) {
  rt::Stream<int> head;
  auto t = head.push(1);
  t = t.push(2);
  t = t.push(3);
  t.close();
  EXPECT_EQ(head.collect_blocking(), (std::vector<int>{1, 2, 3}));
}

TEST(Stream, EmptyStream) {
  rt::Stream<int> head;
  head.close();
  EXPECT_TRUE(head.is_nil());
  EXPECT_TRUE(head.collect_blocking().empty());
}

TEST(Stream, DoubleInstantiationThrows) {
  rt::Stream<int> head;
  head.push(1);
  EXPECT_THROW(head.push(2), rt::StreamReuse);
  EXPECT_THROW(head.close(), rt::StreamReuse);
}

TEST(Stream, TryNextStates) {
  rt::Stream<int> head;
  bool nil = true;
  EXPECT_FALSE(head.try_next(nil).has_value());
  EXPECT_FALSE(nil);
  auto tail = head.push(5);
  auto nx = head.try_next(nil);
  ASSERT_TRUE(nx.has_value());
  EXPECT_EQ(nx->first, 5);
  EXPECT_TRUE(nx->second.same_cell(tail));
  tail.close();
  EXPECT_FALSE(tail.try_next(nil).has_value());
  EXPECT_TRUE(nil);
}

TEST(Stream, WhenReadyFiresOnPush) {
  rt::Stream<int> head;
  int fired = 0;
  head.when_ready([&] { ++fired; });
  EXPECT_EQ(fired, 0);
  head.push(1);
  EXPECT_EQ(fired, 1);
}

TEST(Stream, WhenReadyInlineIfResolved) {
  rt::Stream<int> head;
  head.close();
  int fired = 0;
  head.when_ready([&] { ++fired; });
  EXPECT_EQ(fired, 1);
}

TEST(Stream, ProducerConsumerAcrossThreads) {
  // The paper's Figure 1 shape: producer instantiates the list, consumer
  // walks it concurrently.
  rt::Stream<int> head;
  constexpr int kN = 10000;
  std::thread producer([head]() mutable {
    rt::Stream<int> t = head;
    for (int i = 0; i < kN; ++i) t = t.push(i);
    t.close();
  });
  auto got = head.collect_blocking();
  producer.join();
  ASSERT_EQ(got.size(), size_t(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(got[i], i);
}
