#include "motifs/tree.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace m = motif;
using IntTree = m::Tree<long, char>;

namespace {
long eval_arith(const char& op, const long& a, const long& b) {
  return op == '+' ? a + b : a * b;
}

IntTree::Ptr paper_tree() {
  // (3*2) * (3+1) = 24.
  return IntTree::node(
      '*', IntTree::node('*', IntTree::leaf(3), IntTree::leaf(2)),
      IntTree::node('+', IntTree::leaf(3), IntTree::leaf(1)));
}
}  // namespace

TEST(Tree, LeafBasics) {
  auto l = IntTree::leaf(7);
  EXPECT_TRUE(l->is_leaf());
  EXPECT_EQ(l->value(), 7);
  EXPECT_EQ(l->leaf_count(), 1u);
  EXPECT_EQ(l->node_count(), 1u);
  EXPECT_EQ(l->height(), 0u);
}

TEST(Tree, NodeCounts) {
  auto t = paper_tree();
  EXPECT_FALSE(t->is_leaf());
  EXPECT_EQ(t->tag(), '*');
  EXPECT_EQ(t->leaf_count(), 4u);
  EXPECT_EQ(t->node_count(), 7u);
  EXPECT_EQ(t->height(), 2u);
}

TEST(Tree, SequentialReducePaperValue) {
  EXPECT_EQ((m::reduce_sequential<long, char>(paper_tree(), eval_arith)), 24);
}

TEST(Tree, SequentialReduceRespectsOrder) {
  // Non-commutative eval: subtraction; ((10-4)-1) = 5, not ((1-4)-10).
  auto t = IntTree::node(
      '-', IntTree::node('-', IntTree::leaf(10), IntTree::leaf(4)),
      IntTree::leaf(1));
  auto sub = [](const char&, const long& a, const long& b) { return a - b; };
  EXPECT_EQ((m::reduce_sequential<long, char>(t, sub)), 5);
}

TEST(Tree, BalancedTreeShape) {
  auto t = m::balanced_tree<long, char>(
      64, [](std::size_t i) { return static_cast<long>(i); }, '+');
  EXPECT_EQ(t->leaf_count(), 64u);
  EXPECT_EQ(t->height(), 6u);
  EXPECT_EQ((m::reduce_sequential<long, char>(t, eval_arith)), 64 * 63 / 2);
}

TEST(Tree, SpineTreeShapeAndDeepDestruction) {
  auto t = m::spine_tree<long, char>(
      100000, [](std::size_t) { return 1L; }, '+');
  EXPECT_EQ(t->leaf_count(), 100000u);
  EXPECT_EQ(t->height(), 99999u);
  EXPECT_EQ((m::reduce_sequential<long, char>(t, eval_arith)), 100000);
  t.reset();  // must not overflow the stack
}

TEST(Tree, RandomTreeHasRequestedLeaves) {
  motif::rt::Rng rng(42);
  for (std::size_t n : {1u, 2u, 17u, 256u}) {
    auto t = m::random_tree<long, char>(
        rng, n, [](motif::rt::Rng& r) { return long(r.below(10)); },
        [](motif::rt::Rng& r) { return r.bernoulli(0.5) ? '+' : '*'; });
    EXPECT_EQ(t->leaf_count(), n);
    if (n > 1) {
      EXPECT_EQ(t->node_count(), 2 * n - 1);
    }
  }
}

TEST(Tree, CachedCountsMatchAWalk) {
  // leaf_count() is fixed at construction and node_count() derived from
  // it; both must agree with an explicit walk on every shape.
  const auto check = [](const IntTree::Ptr& t) {
    std::size_t leaves = 0, nodes = 0;
    t->walk([&](const IntTree& n) {
      ++nodes;
      leaves += n.is_leaf() ? 1 : 0;
    });
    EXPECT_EQ(t->leaf_count(), leaves);
    EXPECT_EQ(t->node_count(), nodes);
    EXPECT_EQ(t->node_count(), 2 * t->leaf_count() - 1);
  };
  motif::rt::Rng rng(9);
  for (std::size_t n : {1u, 2u, 3u, 77u, 1000u}) {
    check(m::random_tree<long, char>(
        rng, n, [](motif::rt::Rng& r) { return long(r.below(10)); },
        [](motif::rt::Rng&) { return '+'; }));
    check(m::balanced_tree<long, char>(
        n, [](std::size_t i) { return static_cast<long>(i); }, '+'));
  }
  check(m::spine_tree<long, char>(
      100000, [](std::size_t) { return 1L; }, '+'));
}

TEST(Tree, InternalNodesMustFitThirtyTwoBitIds) {
  // Subtrees may be shared, so doubling reaches 2^32 leaves in 32 steps.
  auto t = IntTree::leaf(1);
  for (int i = 0; i < 32; ++i) t = IntTree::node('+', t, t);
  EXPECT_EQ(t->leaf_count(), std::size_t{1} << 32);  // 2^32 - 1 internal
  EXPECT_THROW(IntTree::node('+', t, IntTree::leaf(1)), std::length_error);
}

TEST(Tree, RandomTreeDeterministicPerSeed) {
  auto build = [](std::uint64_t seed) {
    motif::rt::Rng rng(seed);
    auto t = m::random_tree<long, char>(
        rng, 64, [](motif::rt::Rng& r) { return long(r.below(5) + 1); },
        [](motif::rt::Rng&) { return '+'; });
    return m::reduce_sequential<long, char>(t, eval_arith);
  };
  EXPECT_EQ(build(7), build(7));
}

TEST(Tree, WalkVisitsEveryNode) {
  auto t = paper_tree();
  int leaves = 0, internals = 0;
  t->walk([&](const IntTree& n) { (n.is_leaf() ? leaves : internals)++; });
  EXPECT_EQ(leaves, 4);
  EXPECT_EQ(internals, 3);
}
