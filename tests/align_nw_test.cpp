#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "align/nw.hpp"
#include "align/sequence.hpp"

namespace al = motif::align;
namespace rt = motif::rt;

namespace {

// Needleman–Wunsch as first written: a full (n+1) x (m+1) integer matrix,
// traced back by rescoring each cell against its predecessors in the
// order diagonal, up, left.
al::NWResult reference_nw(const std::string& a, const std::string& b,
                          const al::NWParams& p) {
  const std::size_t n = a.size(), m = b.size();
  auto sub = [&](std::size_t i, std::size_t j) {
    return a[i - 1] == b[j - 1] ? p.match : p.mismatch;
  };
  std::vector<std::vector<int>> dp(n + 1, std::vector<int>(m + 1));
  for (std::size_t i = 0; i <= n; ++i) dp[i][0] = static_cast<int>(i) * p.gap;
  for (std::size_t j = 0; j <= m; ++j) dp[0][j] = static_cast<int>(j) * p.gap;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      dp[i][j] = std::max({dp[i - 1][j - 1] + sub(i, j), dp[i - 1][j] + p.gap,
                           dp[i][j - 1] + p.gap});
    }
  }
  al::NWResult r;
  r.score = dp[n][m];
  std::size_t i = n, j = m;
  while (i > 0 || j > 0) {
    if (i > 0 && j > 0 && dp[i][j] == dp[i - 1][j - 1] + sub(i, j)) {
      r.aligned_a.push_back(a[--i]);
      r.aligned_b.push_back(b[--j]);
    } else if (i > 0 && dp[i][j] == dp[i - 1][j] + p.gap) {
      r.aligned_a.push_back(a[--i]);
      r.aligned_b.push_back(al::kGap);
    } else {
      r.aligned_a.push_back(al::kGap);
      r.aligned_b.push_back(b[--j]);
    }
  }
  std::reverse(r.aligned_a.begin(), r.aligned_a.end());
  std::reverse(r.aligned_b.begin(), r.aligned_b.end());
  return r;
}

}  // namespace

TEST(Sequence, SymbolIndex) {
  EXPECT_EQ(al::symbol_index('A'), 0);
  EXPECT_EQ(al::symbol_index('C'), 1);
  EXPECT_EQ(al::symbol_index('G'), 2);
  EXPECT_EQ(al::symbol_index('U'), 3);
  EXPECT_EQ(al::symbol_index('-'), 4);
  EXPECT_EQ(al::symbol_index('X'), -1);
}

TEST(Sequence, RandomSequenceValid) {
  rt::Rng rng(1);
  auto s = al::random_sequence(rng, 200);
  EXPECT_EQ(s.size(), 200u);
  EXPECT_TRUE(al::valid_rna(s));
}

TEST(Sequence, EvolveZeroTimeIsIdentity) {
  rt::Rng rng(2);
  auto s = al::random_sequence(rng, 100);
  EXPECT_EQ(al::evolve(s, 0.0, {}, rng), s);
}

TEST(Sequence, EvolveDivergesWithTime) {
  rt::Rng rng(3);
  auto s = al::random_sequence(rng, 500);
  auto near = al::evolve(s, 0.5, {}, rng);
  auto far = al::evolve(s, 20.0, {}, rng);
  EXPECT_GT(al::identity(s, near), al::identity(s, far));
  EXPECT_TRUE(al::valid_rna(near));
  EXPECT_TRUE(al::valid_rna(far));
}

TEST(Sequence, EvolveNeverEmpty) {
  rt::Rng rng(4);
  al::MutationModel aggressive;
  aggressive.deletion_rate = 0.9;
  auto s = al::evolve("AC", 10.0, aggressive, rng);
  EXPECT_FALSE(s.empty());
}

TEST(NW, IdenticalSequences) {
  auto r = al::needleman_wunsch("ACGU", "ACGU");
  EXPECT_EQ(r.score, 8);  // 4 matches * 2
  EXPECT_EQ(r.aligned_a, "ACGU");
  EXPECT_EQ(r.aligned_b, "ACGU");
}

TEST(NW, KnownGapPlacement) {
  auto r = al::needleman_wunsch("ACGU", "AGU");
  EXPECT_EQ(r.aligned_a, "ACGU");
  EXPECT_EQ(r.aligned_b, "A-GU");
  EXPECT_EQ(r.score, 3 * 2 - 2);
}

TEST(NW, EmptySequences) {
  auto r = al::needleman_wunsch("", "ACG");
  EXPECT_EQ(r.aligned_a, "---");
  EXPECT_EQ(r.aligned_b, "ACG");
  EXPECT_EQ(r.score, -6);
  auto e = al::needleman_wunsch("", "");
  EXPECT_EQ(e.score, 0);
}

TEST(NW, AlignedLengthsEqualAndReconstructInputs) {
  rt::Rng rng(5);
  for (int round = 0; round < 10; ++round) {
    auto a = al::random_sequence(rng, 30 + rng.below(40));
    auto b = al::evolve(a, 3.0, {}, rng);
    auto r = al::needleman_wunsch(a, b);
    ASSERT_EQ(r.aligned_a.size(), r.aligned_b.size());
    std::string sa, sb;
    for (char c : r.aligned_a) {
      if (c != al::kGap) sa.push_back(c);
    }
    for (char c : r.aligned_b) {
      if (c != al::kGap) sb.push_back(c);
    }
    EXPECT_EQ(sa, a);
    EXPECT_EQ(sb, b);
    // No column may be gap-gap.
    for (std::size_t i = 0; i < r.aligned_a.size(); ++i) {
      EXPECT_FALSE(r.aligned_a[i] == al::kGap && r.aligned_b[i] == al::kGap);
    }
  }
}

TEST(NW, ScoreOnlyMatchesFull) {
  rt::Rng rng(6);
  for (int round = 0; round < 10; ++round) {
    auto a = al::random_sequence(rng, 20 + rng.below(30));
    auto b = al::random_sequence(rng, 20 + rng.below(30));
    EXPECT_EQ(al::nw_score(a, b), al::needleman_wunsch(a, b).score);
  }
}

TEST(NW, MatchesFullMatrixReference) {
  // Random and evolved pairs on and around the 64-column tile edge, under
  // the default scores and under unit scores (many more ties).
  rt::Machine mach({.nodes = 4, .workers = 2});
  rt::Rng rng(65);
  const std::vector<std::size_t> lengths{1, 63, 64, 65, 129};
  for (const al::NWParams& p : {al::NWParams{}, al::NWParams{1, -1, -1}}) {
    for (std::size_t la : lengths) {
      const std::string a = al::random_sequence(rng, la);
      std::vector<std::string> others{al::evolve(a, 2.0, {}, rng)};
      for (std::size_t lb : lengths) {
        others.push_back(al::random_sequence(rng, lb));
      }
      for (const std::string& b : others) {
        SCOPED_TRACE(testing::Message() << a << " / " << b);
        const al::NWResult want = reference_nw(a, b, p);
        const al::NWResult got = al::needleman_wunsch(a, b, p);
        EXPECT_EQ(got.score, want.score);
        EXPECT_EQ(got.aligned_a, want.aligned_a);
        EXPECT_EQ(got.aligned_b, want.aligned_b);
        EXPECT_EQ(al::nw_score(a, b, p), want.score);
        EXPECT_EQ(al::nw_score_wavefront(mach, a, b, p), want.score);
      }
    }
  }
}

TEST(NW, ScoreSymmetric) {
  rt::Rng rng(7);
  auto a = al::random_sequence(rng, 50);
  auto b = al::random_sequence(rng, 60);
  EXPECT_EQ(al::nw_score(a, b), al::nw_score(b, a));
}

TEST(KmerDistance, IdenticalIsZeroDisjointIsOne) {
  EXPECT_DOUBLE_EQ(al::kmer_distance("ACGUACGU", "ACGUACGU"), 0.0);
  EXPECT_DOUBLE_EQ(al::kmer_distance("AAAAAAA", "CCCCCCC"), 1.0);
}

TEST(KmerDistance, RelatedCloserThanUnrelated) {
  rt::Rng rng(8);
  auto a = al::random_sequence(rng, 300);
  auto rel = al::evolve(a, 1.0, {}, rng);
  auto unrel = al::random_sequence(rng, 300);
  EXPECT_LT(al::kmer_distance(a, rel), al::kmer_distance(a, unrel));
}

TEST(KmerDistance, ShortSequencesFallBack) {
  EXPECT_DOUBLE_EQ(al::kmer_distance("AC", "AC"), 0.0);
  EXPECT_DOUBLE_EQ(al::kmer_distance("AC", "AG"), 1.0);
}
