#include "motifs/tree.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

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

long leaf_at(std::size_t i) { return static_cast<long>(i % 13) - 6; }
long random_leaf(motif::rt::Rng& r) { return long(r.below(10)) - 3; }
char random_tag(motif::rt::Rng& r) { return r.bernoulli(0.5) ? '+' : '*'; }

// The generators' recursive definitions, built node by node.
IntTree::Ptr balanced_by_node(std::size_t leaves, std::size_t first) {
  if (leaves == 1) return IntTree::leaf(leaf_at(first));
  const std::size_t lhs = leaves / 2;
  return IntTree::node('+', balanced_by_node(lhs, first),
                       balanced_by_node(leaves - lhs, first + lhs));
}

IntTree::Ptr spine_by_node(std::size_t leaves) {
  auto t = IntTree::leaf(leaf_at(0));
  for (std::size_t i = 1; i < leaves; ++i) {
    t = IntTree::node('*', t, IntTree::leaf(leaf_at(i)));
  }
  return t;
}

IntTree::Ptr random_by_node(motif::rt::Rng& rng, std::size_t leaves) {
  if (leaves == 1) return IntTree::leaf(random_leaf(rng));
  const std::size_t lhs = 1 + rng.below(leaves - 1);
  const char tag = random_tag(rng);
  auto l = random_by_node(rng, lhs);
  auto r = random_by_node(rng, leaves - lhs);
  return IntTree::node(tag, l, r);
}

/// The walk as (leaves, value or tag) per node.
std::vector<std::pair<std::size_t, long>> walk_of(const IntTree::Ptr& t) {
  std::vector<std::pair<std::size_t, long>> out;
  t->walk([&](const IntTree& n) {
    out.emplace_back(n.leaf_count(), n.is_leaf() ? n.value() : n.tag());
  });
  return out;
}

/// FNV-1a over a left-first pre-order of (leaves, value or tag): a
/// tree's identity in one number. Recursive over left()/right(), so it
/// reads any tree representation the same way.
void mix_tree(const IntTree::Ptr& t, std::uint64_t& h) {
  for (std::uint64_t w : {static_cast<std::uint64_t>(t->leaf_count()),
                          static_cast<std::uint64_t>(
                              t->is_leaf() ? t->value() : t->tag())}) {
    h = (h ^ w) * 0x100000001b3ull;
  }
  if (t->is_leaf()) return;
  mix_tree(t->left(), h);
  mix_tree(t->right(), h);
}

std::uint64_t checksum(const IntTree::Ptr& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  mix_tree(t, h);
  return h;
}

/// Tree::map's definition, rebuilt level by level through node().
template <class F>
IntTree::Ptr map_by_node(const IntTree::Ptr& t, F f) {
  if (t->is_leaf()) return IntTree::leaf(f(t->value()));
  return IntTree::node(t->tag(), map_by_node(t->left(), f),
                       map_by_node(t->right(), f));
}

void expect_same(const IntTree::Ptr& a, const IntTree::Ptr& b) {
  EXPECT_EQ(walk_of(a), walk_of(b));
  EXPECT_EQ(a->height(), b->height());
  // Wrapping arithmetic: products of long spines overflow.
  auto wrap = [](const char& op, const long& x, const long& y) {
    const auto ux = static_cast<unsigned long>(x);
    const auto uy = static_cast<unsigned long>(y);
    return static_cast<long>(op == '+' ? ux + uy : ux * uy);
  };
  EXPECT_EQ((m::reduce_sequential<long, char>(a, wrap)),
            (m::reduce_sequential<long, char>(b, wrap)));
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
  // A tree stores every node, so one with 2^32 leaves (2^32 - 1 internal
  // ids) would take ~32 GiB; the bound is checked on the leaf count, which
  // every builder does before it allocates, so no tree is materialised.
  constexpr std::size_t kMost = std::size_t{1} << 32;
  EXPECT_EQ(IntTree::check_leaf_count(kMost), kMost);
  EXPECT_THROW(IntTree::check_leaf_count(kMost + 1), std::length_error);
  EXPECT_THROW(IntTree::check_leaf_count(0), std::length_error);
  const auto one = [](std::size_t) { return 1L; };
  EXPECT_THROW((m::balanced_tree<long, char>(kMost + 1, one, '+')),
               std::length_error);
  EXPECT_THROW((m::spine_tree<long, char>(kMost + 1, one, '+')),
               std::length_error);
  motif::rt::Rng rng(1);
  EXPECT_THROW((m::random_tree<long, char>(
                   rng, kMost + 1, [](motif::rt::Rng&) { return 1L; },
                   [](motif::rt::Rng&) { return '+'; })),
               std::length_error);
}

TEST(Tree, FromStorageRejectsArraysOfDifferentSizes) {
  IntTree::Storage s;
  s.values = {1, 2};
  s.tags = {'+'};
  EXPECT_THROW(IntTree::from_storage(s), std::invalid_argument);
  s.left_leaves = {1};
  EXPECT_EQ((m::reduce_sequential<long, char>(IntTree::from_storage(s),
                                              eval_arith)),
            3);
}

TEST(Tree, ChildrenAreViewsOfOneStorage) {
  auto t = paper_tree();
  auto r = t->right();
  EXPECT_EQ(&r->storage(), &t->storage());
  EXPECT_EQ(r->tag(), '+');
  EXPECT_EQ(r->leaf_count(), 2u);
  EXPECT_EQ(r->right()->value(), 1);
  EXPECT_EQ((m::reduce_sequential<long, char>(r, eval_arith)), 4);
  // node() copies: the new tree does not share its operands' storage,
  // and a view outlives the tree it came from.
  auto u = IntTree::node('*', r, t->left());
  EXPECT_NE(&u->storage(), &t->storage());
  t.reset();
  EXPECT_EQ((m::reduce_sequential<long, char>(u, eval_arith)), 24);
  EXPECT_EQ((m::reduce_sequential<long, char>(r, eval_arith)), 4);
}

TEST(Tree, GeneratorsMatchNodeBuiltTrees) {
  // Each generator writes prefix order directly; it must build the tree
  // its recursive definition builds with node().
  for (std::size_t n : {1u, 2u, 3u, 7u, 64u, 100u, 1000u}) {
    SCOPED_TRACE(n);
    expect_same(m::balanced_tree<long, char>(n, leaf_at, '+'),
                balanced_by_node(n, 0));
    expect_same(m::spine_tree<long, char>(n, leaf_at, '*'),
                spine_by_node(n));
    motif::rt::Rng a(n), b(n);
    expect_same(m::random_tree<long, char>(a, n, random_leaf, random_tag),
                random_by_node(b, n));
    EXPECT_EQ(a.next(), b.next());  // the same draws, no more, no fewer
  }
}

TEST(Tree, MapKeepsTheShapeOfTreesAndViews) {
  const auto f = [](long v) { return 3 * v + 1; };
  motif::rt::Rng rng(5);
  auto t = m::random_tree<long, char>(rng, 200, random_leaf, random_tag);
  auto view = t;
  while (view->leaf_count() > 40) view = view->left();
  for (const IntTree::Ptr& v : {t, t->right(), view->right()}) {
    SCOPED_TRACE(v->leaf_count());
    auto mapped = v->map<long>(f);
    expect_same(mapped, map_by_node(v, f));
    // Its own storage, holding exactly the mapped range.
    EXPECT_EQ(mapped->storage().values.size(), v->leaf_count());
    EXPECT_EQ(mapped->storage().tags.size(), v->leaf_count() - 1);
  }
}

TEST(Tree, RandomTreeMatchesGoldenChecksums) {
  // Captured from the pointer-node builder that preceded the flat one:
  // the same seed must give the same tree, so seeded experiments and
  // labels stay comparable across the change.
  struct Golden {
    std::uint64_t seed;
    std::size_t leaves;
    std::uint64_t checksum;
  };
  for (const Golden& g : {Golden{1, 1, 589723094657566200ull},
                          Golden{7, 17, 18133789367621487984ull},
                          Golden{42, 1000, 13889775070107319303ull},
                          Golden{2024, 65536, 4773182587466231438ull}}) {
    motif::rt::Rng rng(g.seed);
    auto t = m::random_tree<long, char>(rng, g.leaves, random_leaf,
                                        random_tag);
    EXPECT_EQ(checksum(t), g.checksum) << "seed " << g.seed;
  }
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
