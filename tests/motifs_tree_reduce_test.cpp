// Correctness of the three parallel tree-reduction schedules against the
// sequential oracle, including parameterized property sweeps over random
// trees, plus the structural claims of Sections 3.4/3.5 (message
// locality, bounded concurrent evaluations).
#include "motifs/tree_reduce.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "motifs/tree.hpp"

namespace m = motif;
namespace rt = motif::rt;
using IntTree = m::Tree<long, char>;

namespace {

long eval_arith(const char& op, const long& a, const long& b) {
  return op == '+' ? a + b : a * b;
}

IntTree::Ptr paper_tree() {
  return IntTree::node(
      '*', IntTree::node('*', IntTree::leaf(3), IntTree::leaf(2)),
      IntTree::node('+', IntTree::leaf(3), IntTree::leaf(1)));
}

IntTree::Ptr random_sum_tree(std::uint64_t seed, std::size_t leaves) {
  rt::Rng rng(seed);
  return m::random_tree<long, char>(
      rng, leaves, [](rt::Rng& r) { return long(r.below(100)); },
      [](rt::Rng&) { return '+'; });
}

}  // namespace

TEST(TreeReduce1, PaperTreeIs24) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  EXPECT_EQ((m::tree_reduce1<long, char>(mach, paper_tree(), eval_arith)),
            24);
}

TEST(TreeReduce1, SingleLeaf) {
  rt::Machine mach({.nodes = 2, .workers = 2});
  EXPECT_EQ((m::tree_reduce1<long, char>(mach, IntTree::leaf(9), eval_arith)),
            9);
}

TEST(TreeReduce1, NonCommutativeOrderPreserved) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  auto t = IntTree::node(
      '-', IntTree::node('-', IntTree::leaf(10), IntTree::leaf(4)),
      IntTree::leaf(1));
  auto sub = [](const char&, const long& a, const long& b) { return a - b; };
  EXPECT_EQ((m::tree_reduce1<long, char>(mach, t, sub)), 5);
}

TEST(TreeReduce1, ShipsWorkToOtherNodes) {
  rt::Machine mach({.nodes = 8, .workers = 2});
  auto t = random_sum_tree(3, 256);
  long expect = m::reduce_sequential<long, char>(t, eval_arith);
  EXPECT_EQ((m::tree_reduce1<long, char>(mach, t, eval_arith)), expect);
  EXPECT_GT(mach.load_summary().remote_msgs, 0u);
}

TEST(TreeReduce1, RoundRobinPolicyAlsoCorrect) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  auto t = random_sum_tree(5, 100);
  long expect = m::reduce_sequential<long, char>(t, eval_arith);
  EXPECT_EQ((m::tree_reduce1<long, char>(mach, t, eval_arith,
                                         m::MapPolicy::RoundRobin)),
            expect);
}

namespace {

struct TR1Case {
  std::uint64_t tree_seed;
  std::size_t leaves;
  std::uint32_t nodes;
  m::MapPolicy policy;
  std::uint64_t remote_msgs;
  std::uint64_t tasks;
};

const TR1Case kTR1Cases[] = {
    {1, 256, 4, m::MapPolicy::Random, 314, 766},
    {2, 1000, 8, m::MapPolicy::Random, 1485, 2998},
    {3, 300, 5, m::MapPolicy::RoundRobin, 413, 898},
};

/// One TR1 run of `c` on a fresh one-worker Machine, launched after
/// `before` ran on the calling thread; returns the run's load summary.
template <class Before>
rt::LoadSummary tr1_counts(const TR1Case& c, Before before) {
  auto t = random_sum_tree(c.tree_seed, c.leaves);
  rt::Machine mach({.nodes = c.nodes, .workers = 1, .seed = c.tree_seed});
  before(mach);
  EXPECT_EQ((m::tree_reduce1<long, char>(mach, t, eval_arith, c.policy)),
            (m::reduce_sequential<long, char>(t, eval_arith)));
  return mach.load_summary();
}

}  // namespace

TEST(TreeReduce1, MessageAndTaskCountsMatchGolden) {
  // One worker runs every node, so a run's posts, and the nodes they go
  // from and to, are a function of the seeds and of the worker's loop:
  // every 61st turn that runs a node it serves the global queue first.
  // The counts moved once, when that valve stopped counting idle turns:
  // until then this test waited for the worker to park, which took one.
  for (const TR1Case& c : kTR1Cases) {
    const rt::LoadSummary s = tr1_counts(c, [](rt::Machine&) {});
    EXPECT_EQ(s.remote_msgs, c.remote_msgs) << "tree seed " << c.tree_seed;
    EXPECT_EQ(s.total_tasks, c.tasks) << "tree seed " << c.tree_seed;
  }
}

TEST(TreeReduce1, CountsDoNotDependOnIdleTurnsBeforeTheLaunch) {
  // The worker's fairness valve counts only turns that ran a node, so
  // the schedule is the same whether the launch comes before the worker
  // first parks or after it has idled for a while.
  for (const TR1Case& c : kTR1Cases) {
    const rt::LoadSummary now = tr1_counts(c, [](rt::Machine&) {});
    const rt::LoadSummary later = tr1_counts(c, [](rt::Machine& mach) {
      while (mach.load_summary().sched.parks == 0) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    EXPECT_EQ(now.remote_msgs, later.remote_msgs) << "seed " << c.tree_seed;
    EXPECT_EQ(now.total_tasks, later.total_tasks) << "seed " << c.tree_seed;
  }
}

TEST(TreeReduce2, PaperTreeIs24) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  EXPECT_EQ((m::tree_reduce2<long, char>(mach, paper_tree(), eval_arith)),
            24);
}

TEST(TreeReduce2, SingleLeafShortCircuits) {
  rt::Machine mach({.nodes = 2, .workers = 2});
  EXPECT_EQ((m::tree_reduce2<long, char>(mach, IntTree::leaf(5), eval_arith)),
            5);
}

TEST(TreeReduce2, NonCommutativeOrderPreserved) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  auto t = IntTree::node(
      '-', IntTree::node('-', IntTree::leaf(10), IntTree::leaf(4)),
      IntTree::leaf(1));
  auto sub = [](const char&, const long& a, const long& b) { return a - b; };
  EXPECT_EQ((m::tree_reduce2<long, char>(mach, t, sub)), 5);
}

TEST(TreeReduce2, AtMostOneRemoteValuePerNode) {
  // Section 3.5: "an interprocessor communication is required for at most
  // one of each node's offspring values". Internal nodes receive exactly
  // two values; with the labelling, remote deliveries <= internal nodes.
  rt::Machine mach({.nodes = 8, .workers = 2});
  auto t = random_sum_tree(11, 512);
  m::TR2Stats stats;
  m::tree_reduce2<long, char>(mach, t, eval_arith, &stats);
  const std::uint64_t internal = t->node_count() - t->leaf_count();
  EXPECT_EQ(stats.local_values + stats.remote_values, 2 * internal);
  EXPECT_LE(stats.remote_values, internal);
}

TEST(TreeReduce2, SpineTreeMessagesAllLocalOnLeftSpine) {
  // On a left spine every internal node's left child shares its label, so
  // at least half of all deliveries are local.
  rt::Machine mach({.nodes = 8, .workers = 2});
  auto t = m::spine_tree<long, char>(
      2000, [](std::size_t) { return 1L; }, '+');
  m::TR2Stats stats;
  EXPECT_EQ((m::tree_reduce2<long, char>(mach, t, eval_arith, &stats)), 2000);
  EXPECT_GE(stats.local_values, stats.remote_values);
}

TEST(TreeReduce2, IndependentRandomLabelsStillCorrectButChattier) {
  // The ablation of DESIGN.md section 5: dropping the paper's labelling
  // rule keeps the answer but loses the locality guarantee.
  auto t = random_sum_tree(13, 600);
  const long expect = m::reduce_sequential<long, char>(t, eval_arith);
  rt::Machine m1({.nodes = 8, .workers = 2});
  m::TR2Stats paper;
  EXPECT_EQ((m::tree_reduce2<long, char>(m1, t, eval_arith, &paper)), expect);
  rt::Machine m2({.nodes = 8, .workers = 2});
  m::TR2Stats rnd;
  EXPECT_EQ((m::tree_reduce2<long, char>(m2, t, eval_arith, &rnd,
                                         m::LabelPolicy::IndependentRandom)),
            expect);
  EXPECT_GT(rnd.remote_values, paper.remote_values);
}

TEST(TreeReduce2, OnlyCrossProcessorValuesArePosted) {
  // The launch posts one labelling task per processor that roots a
  // subtree below the cut, and each sends its leaves as one batch per
  // processor; after that only values that cross processors travel,
  // because same-processor values combine in place, and each task sends
  // the ones it produced as one batch per destination. A batch joins its
  // destination's inbox, and a drain task is posted only when none is
  // queued, so the machine runs exactly the labelling tasks plus the
  // drains, and never more drains than batches. Which values share a
  // batch depends on arrival order, but the labels bound the batches on
  // both sides: at least one per (sender, destination) pair that some
  // value crosses, at most one per value that crosses. In a balanced
  // power-of-two tree every leaf shares its parent's label (sibling
  // rule), so every remote value is an internal node's.
  rt::Machine mach({.nodes = 8, .workers = 2});
  auto t = m::balanced_tree<long, char>(
      1024, [](std::size_t) { return 1L; }, '+');
  const auto st = m::detail::tr2_start<long, char>(mach, t, eval_arith,
                                                   m::LabelPolicy::Paper);
  mach.wait_idle();
  EXPECT_EQ(st->result.get(), 1024);
  const m::TR2Stats stats = st->stats();
  const std::uint64_t internal = t->node_count() - t->leaf_count();
  EXPECT_EQ(stats.local_values + stats.remote_values, 2 * internal);
  std::uint64_t label_tasks = 0;
  for (const auto& l : st->launches) label_tasks += !l.roots.empty();
  const std::uint64_t leaf_batches = stats.launch_messages - label_tasks;
  EXPECT_EQ(mach.load_summary().total_tasks, label_tasks + stats.drains);
  EXPECT_GE(stats.drains, 1u);
  EXPECT_LE(stats.drains, leaf_batches + stats.value_messages);
  std::uint64_t crossing = 0;
  std::set<std::pair<rt::NodeId, rt::NodeId>> pairs;
  for (std::size_t id = 1; id < internal; ++id) {
    const auto& n = st->nodes[id];
    if (n.label == n.parent_label) continue;
    ++crossing;
    pairs.insert({n.label, n.parent_label});
  }
  EXPECT_EQ(stats.remote_values, crossing);
  EXPECT_LE(pairs.size(), stats.value_messages);
  EXPECT_LE(stats.value_messages, stats.remote_values);
  // At most one labelling task plus one leaf batch per processor for
  // each of the (at most 2^cut) subtrees below the cut: never one post
  // per leaf.
  const std::uint64_t subtrees = std::uint64_t{1} << m::cut_depth(8);
  EXPECT_LE(stats.launch_messages, subtrees * (mach.node_count() + 1));
}

TEST(TreeReduce2, PlanIdsArePrefixOrder) {
  // The labelling walks derive ids from cached leaf counts; they must be
  // the left-first pre-order numbering of the internal nodes. random_tree
  // draws a node's tag before building its subtrees, so a counting tag
  // generator tags every internal node with exactly that number. label_all
  // runs every walk the engine has — the caller's top down to the cut and
  // each processor's subtrees — and is how DistTreeReduce2 labels.
  rt::Rng shape(23);
  int next_tag = 0;
  auto t = m::random_tree<long, int>(
      shape, 200, [](rt::Rng& r) { return long(r.below(10)); },
      [&next_tag](rt::Rng&) { return next_tag++; });
  rt::Machine mach({.nodes = 4});
  auto eval = [](int, long a, long b) { return a + b; };
  auto st = std::make_shared<m::detail::TR2State<long, int, decltype(eval)>>(
      m::detail::MachinePost{mach}, t, eval, m::LabelPolicy::Paper);
  rt::Rng rng(5);
  st->label_all(rng);
  const std::size_t internal = t->leaf_count() - 1;
  EXPECT_EQ(st->nodes[0].parent, m::detail::kTR2Root);
  std::vector<int> children(internal, 0);
  for (std::size_t id = 0; id < internal; ++id) {
    const auto& n = st->nodes[id];
    EXPECT_EQ(n.tag, static_cast<int>(id));
    if (id == 0) continue;
    ASSERT_LT(n.parent, id);
    EXPECT_EQ(n.parent_label, st->nodes[n.parent].label);
    // Section 3.5: a left child carries its parent's label, so only
    // right-side values ever cross processors.
    if (!n.is_right) {
      EXPECT_EQ(n.label, n.parent_label);
    }
    ++children[n.parent];
  }
  // Every leaf value is filed exactly once, in the batch for its
  // parent's processor.
  std::size_t leaves = 0;
  long leaf_sum = 0;
  auto count_leaves = [&](const auto& outbox) {
    for (rt::NodeId p = 0; p < outbox.size(); ++p) {
      for (const auto& leaf : outbox[p]) {
        ASSERT_LT(leaf.id, internal);
        EXPECT_EQ(st->nodes[leaf.id].label, p);
        ++children[leaf.id];
        ++leaves;
        leaf_sum += leaf.value;
      }
    }
  };
  count_leaves(st->top_to);
  for (const auto& l : st->launches) count_leaves(l.to);
  EXPECT_EQ(leaves, t->leaf_count());
  EXPECT_EQ(leaf_sum, (m::reduce_sequential<long, int>(t, eval)));
  for (int c : children) EXPECT_EQ(c, 2);
}

TEST(TreeReduce2, LabelsMatchGoldenChecksums) {
  // Captured from the pointer-node walk that preceded the flat one. At a
  // fixed seed the plan must not change — each internal node's parent,
  // labels, tag and side, and the batch each leaf value is filed in —
  // nor its local/remote split: DistTreeReduce2 relabels from seeds on
  // every rank, and E3's counts are per seed.
  struct Golden {
    char shape;  // 'r'andom, 'b'alanced or 's'pine
    std::uint64_t seed;
    std::size_t leaves;
    std::uint32_t procs;
    m::LabelPolicy policy;
    std::uint64_t checksum, local, remote;
  };
  const auto paper = m::LabelPolicy::Paper;
  const Golden goldens[] = {
      {'r', 23, 200, 4, paper, 16552161432386803621ull, 294, 104},
      {'r', 99, 3000, 16, paper, 10733403563837597565ull, 4134, 1864},
      {'b', 11, 1024, 8, paper, 14679327347562594531ull, 1612, 434},
      {'b', 5, 65536, 16, paper, 14660842921247256015ull, 100322,
       30748},
      {'s', 3, 500, 3, paper, 674010721791579772ull, 674, 324},
      {'r', 7, 777, 5, m::LabelPolicy::IndependentRandom,
       8251941844992263194ull, 296, 1256},
  };
  auto eval = [](char, long a, long b) { return a + b; };
  for (const Golden& g : goldens) {
    const auto at = [](std::size_t i) { return static_cast<long>(i % 97); };
    IntTree::Ptr t = g.shape == 'r'   ? random_sum_tree(g.seed, g.leaves)
                     : g.shape == 'b' ? m::balanced_tree<long, char>(
                                            g.leaves, at, '+')
                                      : m::spine_tree<long, char>(
                                            g.leaves, at, '+');
    rt::Machine mach({.nodes = g.procs, .workers = 1});
    auto st =
        std::make_shared<m::detail::TR2State<long, char, decltype(eval)>>(
            m::detail::MachinePost{mach}, t, eval, g.policy);
    rt::Rng rng(g.seed ^ 0x5EEDull);
    st->label_all(rng);
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t w) {
      h = (h ^ w) * 0x100000001b3ull;
    };
    for (std::size_t id = 0; id + 1 < t->leaf_count(); ++id) {
      const auto& n = st->nodes[id];
      for (std::uint64_t w :
           {std::uint64_t{n.parent}, std::uint64_t{n.parent_label},
            std::uint64_t{n.label}, static_cast<std::uint64_t>(n.tag),
            std::uint64_t{n.is_right}}) {
        mix(w);
      }
    }
    const auto file = [&mix](const auto& outbox) {
      for (rt::NodeId p = 0; p < outbox.size(); ++p) {
        for (const auto& a : outbox[p]) {
          for (std::uint64_t w : {std::uint64_t{p}, std::uint64_t{a.id},
                                  std::uint64_t{a.is_right},
                                  static_cast<std::uint64_t>(a.value)}) {
            mix(w);
          }
        }
      }
    };
    file(st->top_to);
    for (const auto& l : st->launches) file(l.to);
    const m::TR2Stats stats = st->stats();
    EXPECT_EQ(h, g.checksum) << g.shape << g.seed;
    EXPECT_EQ(stats.local_values, g.local) << g.shape << g.seed;
    EXPECT_EQ(stats.remote_values, g.remote) << g.shape << g.seed;
  }
}

TEST(TreeReduce, SubtreeViewsReduceLikeTheirOwnTrees) {
  // A child view shares its parent's storage, where its node ids do not
  // start at 0; every reducer must still see it as a tree of its own.
  auto t = random_sum_tree(31, 700);
  for (const IntTree::Ptr& sub : {t->left(), t->right(), t->right()->left()}) {
    if (sub->is_leaf()) continue;
    const long expect = m::reduce_sequential<long, char>(sub, eval_arith);
    rt::Machine mach({.nodes = 4, .workers = 2});
    EXPECT_EQ((m::tree_reduce1<long, char>(mach, sub, eval_arith)), expect);
    m::TR2Stats stats;
    EXPECT_EQ((m::tree_reduce2<long, char>(mach, sub, eval_arith, &stats)),
              expect);
    EXPECT_EQ(stats.local_values + stats.remote_values,
              2 * (sub->leaf_count() - 1));
    EXPECT_EQ((m::static_tree_reduce<long, char>(mach, sub, eval_arith)),
              expect);
  }
}

TEST(TreeReduce2, ConcurrentExternalLaunches) {
  // Two external threads launch on one Machine at once: labelling must
  // not share a generator between them (or with node 0's tasks).
  rt::Machine mach({.nodes = 4, .workers = 2});
  auto t = random_sum_tree(17, 300);
  const long expect = m::reduce_sequential<long, char>(t, eval_arith);
  std::array<int, 2> wrong{};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < 50; ++i) {
        if (m::tree_reduce2<long, char>(mach, t, eval_arith) != expect) {
          ++wrong[c];
        }
      }
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(wrong[0], 0);
  EXPECT_EQ(wrong[1], 0);
}

TEST(StaticTreeReduce, PaperTreeIs24) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  EXPECT_EQ(
      (m::static_tree_reduce<long, char>(mach, paper_tree(), eval_arith)),
      24);
}

TEST(StaticTreeReduce, UsesMultipleNodes) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  auto t = m::balanced_tree<long, char>(
      256, [](std::size_t) { return 1L; }, '+');
  EXPECT_EQ((m::static_tree_reduce<long, char>(mach, t, eval_arith)), 256);
  auto s = mach.load_summary();
  EXPECT_GT(s.total_tasks, 3u);
}

// ---- property sweeps (TEST_P) ---------------------------------------------

struct Shape {
  std::uint64_t seed;
  std::size_t leaves;
  std::uint32_t nodes;
};

class AllSchedulesAgree : public ::testing::TestWithParam<Shape> {};

TEST_P(AllSchedulesAgree, MatchSequentialOracle) {
  const Shape s = GetParam();
  rt::Rng rng(s.seed);
  // '+'/max keeps values bounded (no signed overflow) while staying
  // non-trivially mixed.
  auto safe_eval = [](const char& op, const long& a, const long& b) {
    return op == '+' ? a + b : std::max(a, b);
  };
  auto t = m::random_tree<long, char>(
      rng, s.leaves, [](rt::Rng& r) { return long(r.below(7) + 1); },
      [](rt::Rng& r) { return r.bernoulli(0.8) ? '+' : 'M'; });
  const long expect = m::reduce_sequential<long, char>(t, safe_eval);
  rt::Machine m1({.nodes = s.nodes, .workers = 2, .batch = 64,
                  .seed = s.seed});
  EXPECT_EQ((m::tree_reduce1<long, char>(m1, t, safe_eval)), expect);
  rt::Machine m2({.nodes = s.nodes, .workers = 2, .batch = 64,
                  .seed = s.seed});
  EXPECT_EQ((m::tree_reduce2<long, char>(m2, t, safe_eval)), expect);
  rt::Machine m3({.nodes = s.nodes, .workers = 2, .batch = 64,
                  .seed = s.seed});
  EXPECT_EQ((m::static_tree_reduce<long, char>(m3, t, safe_eval)), expect);
}

INSTANTIATE_TEST_SUITE_P(
    RandomTrees, AllSchedulesAgree,
    ::testing::Values(Shape{1, 1, 2}, Shape{2, 2, 2}, Shape{3, 3, 4},
                      Shape{4, 10, 4}, Shape{5, 33, 3}, Shape{6, 100, 8},
                      Shape{7, 255, 8}, Shape{8, 512, 16}, Shape{9, 63, 1},
                      Shape{10, 1000, 5}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "seed" + std::to_string(info.param.seed) + "_leaves" +
             std::to_string(info.param.leaves) + "_nodes" +
             std::to_string(info.param.nodes);
    });

class SpineShapes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpineShapes, DeepSpinesReduceEverywhere) {
  const std::size_t leaves = GetParam();
  auto t = m::spine_tree<long, char>(
      leaves, [](std::size_t) { return 1L; }, '+');
  rt::Machine m1({.nodes = 4, .workers = 2});
  EXPECT_EQ((m::tree_reduce1<long, char>(m1, t, eval_arith)),
            static_cast<long>(leaves));
  rt::Machine m2({.nodes = 4, .workers = 2});
  EXPECT_EQ((m::tree_reduce2<long, char>(m2, t, eval_arith)),
            static_cast<long>(leaves));
}

INSTANTIATE_TEST_SUITE_P(Depths, SpineShapes,
                         ::testing::Values(2, 64, 1024, 20000));

TEST(TreeReduceMemory, TR2BoundsConcurrentEvaluations) {
  // Section 3.5's claim, measured: with a slow eval on few processors,
  // TR1 admits multiple live evaluations per processor while TR2 keeps at
  // most one active evaluation per processor.
  auto slow_eval = [](const char&, const long& a, const long& b) {
    for (int i = 0; i < 2000; ++i) asm volatile("");
    return a + b;
  };
  auto t = m::balanced_tree<long, char>(
      256, [](std::size_t) { return 1L; }, '+');
  rt::active_evals().reset();
  {
    rt::Machine mach({.nodes = 2, .workers = 2});
    EXPECT_EQ((m::tree_reduce2<long, char>(mach, t, slow_eval)), 256);
  }
  // TR2: one eval at a time per node; 2 nodes -> peak <= 2.
  EXPECT_LE(rt::active_evals().peak(), 2);
}

TEST(TreeReduceMemory, TR1ScopesOpenWhenTheJoinFires) {
  // A join that fires opens its evaluation scope before the combine task
  // runs, so combines queued behind one another on a processor all count
  // as live: with a slow eval on two processors TR1 piles up more than
  // one evaluation per processor (EXPERIMENTS.md E2).
  auto slow_eval = [](const char&, const long& a, const long& b) {
    for (int i = 0; i < 2000; ++i) asm volatile("");
    return a + b;
  };
  auto t = m::balanced_tree<long, char>(
      256, [](std::size_t) { return 1L; }, '+');
  rt::active_evals().reset();
  {
    rt::Machine mach({.nodes = 2, .workers = 2});
    EXPECT_EQ((m::tree_reduce1<long, char>(mach, t, slow_eval)), 256);
  }
  EXPECT_GT(rt::active_evals().peak(), 2);
}
