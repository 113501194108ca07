// Phylogeny generation, guide trees, and the end-to-end progressive MSA
// under every schedule — the paper's case-study application.
#include <gtest/gtest.h>

#include <cstring>

#include "align/align.hpp"
#include "motifs/tree_reduce.hpp"

namespace al = motif::align;
namespace rt = motif::rt;
using motif::Tree;

TEST(Phylo, YuleTreeHasRequestedTaxa) {
  rt::Rng rng(1);
  for (std::size_t taxa : {1u, 2u, 7u, 32u}) {
    auto t = al::yule_tree(taxa, rng);
    EXPECT_EQ(t->leaf_count(), taxa);
  }
}

TEST(Phylo, TaxaNumberedLeftToRight) {
  rt::Rng rng(2);
  auto t = al::yule_tree(8, rng);
  std::vector<int> order;
  std::function<void(const al::Phylo::Ptr&)> walk =
      [&](const al::Phylo::Ptr& n) {
        if (n->is_leaf()) {
          order.push_back(n->taxon);
          return;
        }
        walk(n->left);
        walk(n->right);
      };
  walk(t);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(Phylo, EvolveFamilyProducesOneSequencePerTaxon) {
  rt::Rng rng(3);
  auto t = al::yule_tree(12, rng);
  auto fam = al::evolve_family(t, 150, rng);
  ASSERT_EQ(fam.size(), 12u);
  for (const auto& s : fam) {
    EXPECT_FALSE(s.empty());
    EXPECT_TRUE(al::valid_rna(s));
  }
}

TEST(Phylo, GuideFromPhyloPreservesShape) {
  rt::Rng rng(4);
  auto t = al::yule_tree(10, rng);
  auto g = al::guide_from_phylo(t);
  EXPECT_EQ(g->leaf_count(), 10u);
}

TEST(Upgma, PairsCloseItemsFirst) {
  // Distances: {0,1} close, {2,3} close, groups far apart.
  std::vector<std::vector<double>> d = {
      {0.0, 0.1, 0.9, 0.9},
      {0.1, 0.0, 0.9, 0.9},
      {0.9, 0.9, 0.0, 0.1},
      {0.9, 0.9, 0.1, 0.0},
  };
  auto g = al::upgma(d);
  ASSERT_EQ(g->leaf_count(), 4u);
  // Root splits {0,1} from {2,3}.
  auto leaves_of = [](const Tree<int, char>::Ptr& t) {
    std::vector<int> out;
    t->walk([&](const Tree<int, char>& n) {
      if (n.is_leaf()) out.push_back(n.value());
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  auto l = leaves_of(g->left());
  auto r = leaves_of(g->right());
  if (l[0] > r[0]) std::swap(l, r);
  EXPECT_EQ(l, (std::vector<int>{0, 1}));
  EXPECT_EQ(r, (std::vector<int>{2, 3}));
}

TEST(Upgma, SingleItem) {
  auto g = al::upgma({{0.0}});
  ASSERT_TRUE(g);
  EXPECT_TRUE(g->is_leaf());
}

TEST(Upgma, DistanceMatrixSymmetricZeroDiagonal) {
  rt::Rng rng(5);
  std::vector<std::string> seqs;
  for (int i = 0; i < 5; ++i) seqs.push_back(al::random_sequence(rng, 80));
  auto d = al::distance_matrix(seqs);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(d[i][i], 0.0);
    for (int j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(d[i][j], d[j][i]);
  }
}

TEST(Msa, AllSchedulesProduceIdenticalAlignment) {
  // TR2 runs each align-node as wavefront tiles shared with idle
  // processors: at length 200 a node spans 4 x 4 tiles of 64 columns.
  for (std::size_t len : {120u, 200u}) {
    SCOPED_TRACE(testing::Message() << "length " << len);
    auto fam = al::synthetic_family(16, len, 42);
    rt::Machine m1({.nodes = 4, .workers = 2});
    auto seq = al::progressive_msa(m1, fam.sequences, fam.guide,
                                   al::MsaSchedule::Sequential);
    for (auto sched :
         {al::MsaSchedule::TreeReduce1, al::MsaSchedule::TreeReduce2}) {
      rt::Machine m2({.nodes = 4, .workers = 3});
      auto r = al::progressive_msa(m2, fam.sequences, fam.guide, sched);
      ASSERT_EQ(seq.profile.length(), r.profile.length());
      EXPECT_EQ(seq.profile.depth(), r.profile.depth());
      for (std::size_t i = 0; i < r.profile.length(); ++i) {
        EXPECT_EQ(std::memcmp(seq.profile.column(i).data(),
                              r.profile.column(i).data(), sizeof(al::Column)),
                  0)
            << "column " << i;
      }
      EXPECT_EQ(std::memcmp(&seq.sum_of_pairs_score, &r.sum_of_pairs_score,
                            sizeof(double)),
                0);
    }
  }
}

TEST(Msa, ProfileDepthEqualsFamilySize) {
  auto fam = al::synthetic_family(16, 100, 7);
  rt::Machine m({.nodes = 4, .workers = 2});
  auto r = al::progressive_msa(m, fam.sequences, fam.guide);
  EXPECT_EQ(r.profile.depth(), 16u);
  // Alignment at least as long as the longest input.
  std::size_t longest = 0;
  for (const auto& s : fam.sequences) longest = std::max(longest, s.size());
  EXPECT_GE(r.profile.length(), longest);
}

TEST(Msa, RelatedFamilyAlignsBetterThanRandom) {
  auto fam = al::synthetic_family(8, 150, 9);
  rt::Machine m({.nodes = 4, .workers = 2});
  auto related = al::progressive_msa_auto(m, fam.sequences);

  rt::Rng rng(10);
  std::vector<std::string> random_seqs;
  for (int i = 0; i < 8; ++i) {
    random_seqs.push_back(al::random_sequence(rng, 150));
  }
  rt::Machine m2({.nodes = 4, .workers = 2});
  auto unrelated = al::progressive_msa_auto(m2, random_seqs);
  // Normalise by alignment size (pairs * columns scale).
  const double rel = related.sum_of_pairs_score /
                     static_cast<double>(related.profile.length());
  const double unrel = unrelated.sum_of_pairs_score /
                       static_cast<double>(unrelated.profile.length());
  EXPECT_GT(rel, unrel);
}

TEST(Msa, UpgmaGuideGroupsRelatives) {
  // Two diverged subfamilies; the UPGMA guide tree's root must separate
  // them (this is what makes progressive alignment work).
  rt::Rng rng(20);
  auto rootseq = al::random_sequence(rng, 200);
  auto fam_a = al::evolve(rootseq, 30.0, {}, rng);
  auto fam_b = al::evolve(rootseq, 30.0, {}, rng);
  std::vector<std::string> seqs;
  for (int i = 0; i < 3; ++i) seqs.push_back(al::evolve(fam_a, 1.0, {}, rng));
  for (int i = 0; i < 3; ++i) seqs.push_back(al::evolve(fam_b, 1.0, {}, rng));
  auto guide = al::upgma(al::distance_matrix(seqs));
  std::vector<int> left;
  guide->left()->walk([&](const Tree<int, char>& n) {
    if (n.is_leaf()) left.push_back(n.value());
  });
  std::sort(left.begin(), left.end());
  const bool splits = (left == std::vector<int>{0, 1, 2}) ||
                      (left == std::vector<int>{3, 4, 5});
  EXPECT_TRUE(splits);
}

TEST(Msa, SingleSequenceFamilyIsItself) {
  rt::Machine m({.nodes = 2, .workers = 1});
  auto r = al::progressive_msa_auto(m, {"ACGUACG"});
  EXPECT_EQ(r.profile.consensus(), "ACGUACG");
  EXPECT_EQ(r.profile.depth(), 1u);
}

TEST(Msa, EmptyFamilyThrows) {
  rt::Machine m({.nodes = 2, .workers = 1});
  EXPECT_THROW(
      al::progressive_msa(m, {}, Tree<int, char>::leaf(0)),
      std::invalid_argument);
}

TEST(Msa, GuideTaxonOutOfRangeThrows) {
  rt::Machine m({.nodes = 2, .workers = 1});
  EXPECT_THROW(al::progressive_msa(m, {"ACG"}, Tree<int, char>::leaf(5)),
               std::out_of_range);
}
