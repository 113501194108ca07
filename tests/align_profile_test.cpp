#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "align/msa.hpp"
#include "align/profile.hpp"
#include "align/sequence.hpp"
#include "motifs/tree.hpp"

namespace al = motif::align;
namespace rt = motif::rt;

namespace {

// The align-node kernel as first written: a full (n+1) x (m+1) matrix of
// doubles, column_score per cell, and a traceback that rescores each
// cell to find the move it came from. align_profiles must reproduce it
// bit for bit.
al::Column reference_gap_column(float weight) {
  al::Column c{};
  c[4] = weight;
  return c;
}

al::Column reference_merge_columns(const al::Column& a, const al::Column& b) {
  al::Column out{};
  for (std::size_t i = 0; i < 5; ++i) out[i] = a[i] + b[i];
  return out;
}

al::Profile reference_align(const al::Profile& a, const al::Profile& b,
                            const al::ProfileAlignParams& params) {
  const std::size_t n = a.length(), m = b.length();
  const al::NWParams& p = params.pairwise;
  const double gp = p.gap;

  std::vector<std::vector<double>> dp(n + 1, std::vector<double>(m + 1));
  for (std::size_t i = 0; i <= n; ++i) dp[i][0] = static_cast<double>(i) * gp;
  for (std::size_t j = 0; j <= m; ++j) dp[0][j] = static_cast<double>(j) * gp;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      const double diag =
          dp[i - 1][j - 1] +
          al::column_score(a.column(i - 1), b.column(j - 1), p);
      dp[i][j] = std::max({diag, dp[i - 1][j] + gp, dp[i][j - 1] + gp});
    }
  }
  std::vector<al::Column> cols;
  cols.reserve(std::max(n, m));
  std::size_t i = n, j = m;
  const float da = static_cast<float>(a.depth());
  const float db = static_cast<float>(b.depth());
  while (i > 0 || j > 0) {
    if (i > 0 && j > 0 &&
        dp[i][j] == dp[i - 1][j - 1] +
                        al::column_score(a.column(i - 1), b.column(j - 1), p)) {
      cols.push_back(reference_merge_columns(a.column(i - 1), b.column(j - 1)));
      --i;
      --j;
    } else if (i > 0 && dp[i][j] == dp[i - 1][j] + gp) {
      cols.push_back(
          reference_merge_columns(a.column(i - 1), reference_gap_column(db)));
      --i;
    } else {
      cols.push_back(
          reference_merge_columns(reference_gap_column(da), b.column(j - 1)));
      --j;
    }
  }
  std::reverse(cols.begin(), cols.end());
  return al::Profile::assemble(std::move(cols), a.depth() + b.depth());
}

using PTree = motif::Tree<al::ProfilePtr, char>;

PTree::Ptr profile_tree(const motif::Tree<int, char>::Ptr& guide,
                        const std::vector<std::string>& seqs) {
  if (guide->is_leaf()) {
    return PTree::leaf(std::make_shared<const al::Profile>(
        seqs[static_cast<std::size_t>(guide->value())]));
  }
  return PTree::node(guide->tag(), profile_tree(guide->left(), seqs),
                     profile_tree(guide->right(), seqs));
}

bool bitwise_equal(const al::Profile& x, const al::Profile& y) {
  if (x.depth() != y.depth() || x.length() != y.length()) return false;
  for (std::size_t i = 0; i < x.length(); ++i) {
    if (std::memcmp(x.column(i).data(), y.column(i).data(),
                    sizeof(al::Column)) != 0) {
      return false;
    }
  }
  const double sx = al::sum_of_pairs(x), sy = al::sum_of_pairs(y);
  return std::memcmp(&sx, &sy, sizeof(double)) == 0;
}

}  // namespace

TEST(Profile, FromSequence) {
  al::Profile p("ACGU");
  EXPECT_EQ(p.length(), 4u);
  EXPECT_EQ(p.depth(), 1u);
  EXPECT_FLOAT_EQ(p.column(0)[0], 1.0f);  // A
  EXPECT_FLOAT_EQ(p.column(1)[1], 1.0f);  // C
  EXPECT_FLOAT_EQ(p.column(2)[2], 1.0f);  // G
  EXPECT_FLOAT_EQ(p.column(3)[3], 1.0f);  // U
  EXPECT_EQ(p.consensus(), "ACGU");
}

TEST(Profile, SingleSequenceEntropyIsZero) {
  al::Profile p("ACGUACGU");
  EXPECT_DOUBLE_EQ(p.mean_entropy(), 0.0);
}

TEST(Profile, TracksLiveBytes) {
  rt::live_bytes().reset();
  {
    al::Profile p(std::string(1000, 'A'));
    EXPECT_GE(rt::live_bytes().current(),
              static_cast<std::int64_t>(1000 * sizeof(al::Column)));
  }
  EXPECT_EQ(rt::live_bytes().current(), 0);
}

TEST(ProfileAlign, IdenticalSequencesNoGaps) {
  al::Profile a("ACGUACGU"), b("ACGUACGU");
  auto merged = al::align_profiles(a, b);
  EXPECT_EQ(merged.length(), 8u);
  EXPECT_EQ(merged.depth(), 2u);
  EXPECT_EQ(merged.consensus(), "ACGUACGU");
  EXPECT_DOUBLE_EQ(merged.mean_entropy(), 0.0);
}

TEST(ProfileAlign, GapInsertedForDeletion) {
  al::Profile a("ACGU"), b("AGU");
  auto merged = al::align_profiles(a, b);
  EXPECT_EQ(merged.length(), 4u);
  // Column 1 holds C from a and a gap from b.
  EXPECT_FLOAT_EQ(merged.column(1)[1], 1.0f);
  EXPECT_FLOAT_EQ(merged.column(1)[4], 1.0f);
}

TEST(ProfileAlign, MatchesPairwiseNWForSingletons) {
  // Profile-profile alignment of two single-sequence profiles must place
  // gaps like plain NW (same DP, same scores).
  rt::Rng rng(11);
  for (int round = 0; round < 6; ++round) {
    auto sa = al::random_sequence(rng, 20 + rng.below(20));
    auto sb = al::evolve(sa, 4.0, {}, rng);
    auto nw = al::needleman_wunsch(sa, sb);
    auto merged = al::align_profiles(al::Profile(sa), al::Profile(sb));
    EXPECT_EQ(merged.length(), nw.aligned_a.size());
  }
}

TEST(ProfileAlign, KernelMatchesReferenceBitwise) {
  // Every node of every guide tree, from singleton pairs (integer scores,
  // many ties) up to deep merged profiles (fractional scores), through the
  // caller-alone kernel and the tiled one with 1, 2 and 4 workers helping.
  std::vector<std::unique_ptr<rt::Machine>> machines;
  for (std::uint32_t w : {1u, 2u, 4u}) {
    machines.push_back(std::make_unique<rt::Machine>(
        rt::MachineConfig{.nodes = 4, .workers = w}));
  }
  int cases = 0;
  for (std::size_t taxa : {4u, 8u, 16u, 32u, 64u, 128u}) {
    for (std::size_t len : {50u, 100u, 200u, 400u}) {
      if (taxa * len > 16384) continue;  // keeps the reference DP quick
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        SCOPED_TRACE(testing::Message() << "taxa " << taxa << " length "
                                        << len << " seed " << seed);
        auto fam = al::synthetic_family(taxa, len, 1000 * taxa + len + seed);
        int nodes = 0, mismatched = 0;
        auto eval = [&](const char&, const al::ProfilePtr& a,
                        const al::ProfilePtr& b) -> al::ProfilePtr {
          al::Profile got = al::align_profiles(*a, *b);
          const al::Profile want = reference_align(*a, *b, {});
          if (!bitwise_equal(got, want)) ++mismatched;
          for (auto& mach : machines) {
            if (!bitwise_equal(al::align_profiles(*mach, *a, *b), want)) {
              ++mismatched;
            }
          }
          ++nodes;
          return std::make_shared<const al::Profile>(std::move(got));
        };
        motif::reduce_sequential<al::ProfilePtr, char>(
            profile_tree(fam.guide, fam.sequences), eval);
        EXPECT_EQ(nodes, static_cast<int>(taxa) - 1);
        EXPECT_EQ(mismatched, 0);
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 30);

  // Lengths on and around the 64-column tile edge, square and not, for
  // singleton profiles and for merged ones.
  rt::Rng rng(64);
  std::vector<al::Profile> singles, merged;
  for (std::size_t len : {1u, 63u, 64u, 65u, 129u}) {
    const std::string s = al::random_sequence(rng, len);
    singles.emplace_back(s);
    merged.push_back(al::align_profiles(
        al::Profile(s), al::Profile(al::evolve(s, 3.0, {}, rng))));
  }
  for (const auto* set : {&singles, &merged}) {
    for (const al::Profile& a : *set) {
      for (const al::Profile& b : *set) {
        SCOPED_TRACE(testing::Message() << a.length() << " x " << b.length());
        const al::Profile want = reference_align(a, b, {});
        EXPECT_TRUE(bitwise_equal(al::align_profiles(a, b), want));
        for (auto& mach : machines) {
          EXPECT_TRUE(bitwise_equal(al::align_profiles(*mach, a, b), want));
        }
      }
    }
  }
}

TEST(ProfileAlign, ScoreTableMatchesReference) {
  // The kernel scores each pair of distinct columns once, into a table.
  // Its edges: one distinct column, all columns distinct, and new columns
  // only in the last tile band, so the table's last rows and columns are
  // read only by the last tiles.
  std::vector<std::unique_ptr<rt::Machine>> machines;
  for (std::uint32_t w : {1u, 2u, 4u}) {
    machines.push_back(std::make_unique<rt::Machine>(
        rt::MachineConfig{.nodes = 4, .workers = w}));
  }
  auto check = [&](const al::Profile& a, const al::Profile& b) {
    SCOPED_TRACE(testing::Message() << a.length() << " x " << b.length());
    const al::Profile want = reference_align(a, b, {});
    EXPECT_TRUE(bitwise_equal(al::align_profiles(a, b), want));
    for (auto& mach : machines) {
      EXPECT_TRUE(bitwise_equal(al::align_profiles(*mach, a, b), want));
    }
  };
  rt::Rng rng(32);
  constexpr std::size_t kDepth = 16;
  // A column of kDepth whole-number counts.
  auto random_column = [&] {
    al::Column c{};
    for (std::size_t k = 0; k < kDepth; ++k) c[rng.below(5)] += 1.0f;
    return c;
  };
  // n columns, all distinct.
  auto distinct = [&](std::size_t n) {
    std::vector<al::Column> cols;
    while (cols.size() < n) {
      const al::Column c = random_column();
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        cols.push_back(c);
      }
    }
    return al::Profile::assemble(std::move(cols), kDepth);
  };
  // n columns drawn from two, then `fresh` new ones from column n on.
  auto late = [&](std::size_t n, std::size_t fresh) {
    const al::Column x{kDepth, 0, 0, 0, 0}, y{0, kDepth / 2, kDepth / 2, 0, 0};
    std::vector<al::Column> cols;
    for (std::size_t i = 0; i < n; ++i) cols.push_back(rng.below(2) ? x : y);
    for (std::size_t i = 0; i < fresh; ++i) {
      al::Column c = random_column();
      while (c == x || c == y) c = random_column();
      cols.push_back(c);
    }
    return al::Profile::assemble(std::move(cols), kDepth);
  };

  const al::Profile one(std::string(130, 'A'));
  const al::Profile one_deep = al::Profile::assemble(
      std::vector<al::Column>(100, al::Column{3, 0, 5, 0, 8}), kDepth);
  const al::Profile all = distinct(130), all_short = distinct(70);
  check(one, one);
  check(one, one_deep);
  check(one_deep, all);
  check(all, one);
  check(all, all_short);
  check(all_short, all);

  // Rows 128 and on, and columns 128 and on, are the last tile band.
  check(late(128, 1), late(128, 22));
  check(late(128, 3), all_short);
  check(all_short, late(128, 5));
}

TEST(ProfileAlign, DepthAccumulates) {
  al::Profile a("ACGU"), b("ACGU"), c("ACGU");
  auto ab = al::align_profiles(a, b);
  auto abc = al::align_profiles(ab, c);
  EXPECT_EQ(abc.depth(), 3u);
  // Column mass equals depth at every column.
  for (std::size_t i = 0; i < abc.length(); ++i) {
    float mass = 0;
    for (float f : abc.column(i)) mass += f;
    EXPECT_FLOAT_EQ(mass, 3.0f);
  }
}

TEST(Profile, CountsStayWholeNumbers) {
  // align_profiles' bit-identity with column_score rests on this.
  auto fam = al::synthetic_family(64, 200, 5);
  rt::Machine mach({.nodes = 2, .workers = 1, .seed = 1});
  auto r = al::progressive_msa(mach, fam.sequences, fam.guide,
                               al::MsaSchedule::Sequential);
  ASSERT_EQ(r.profile.depth(), 64u);
  for (std::size_t i = 0; i < r.profile.length(); ++i) {
    double mass = 0.0;
    for (float f : r.profile.column(i)) {
      EXPECT_EQ(f, std::floor(f)) << "column " << i;
      mass += f;
    }
    EXPECT_EQ(mass, 64.0) << "column " << i;
  }
}

TEST(ColumnScore, MatchBeatsMismatchBeatsGap) {
  al::NWParams p;
  al::Column a{1, 0, 0, 0, 0};  // A
  al::Column c{0, 1, 0, 0, 0};  // C
  al::Column g{0, 0, 0, 0, 1};  // gap
  EXPECT_GT(al::column_score(a, a, p), al::column_score(a, c, p));
  EXPECT_GT(al::column_score(a, c, p), al::column_score(a, g, p));
  EXPECT_DOUBLE_EQ(al::column_score(g, g, p), 0.0);
}

TEST(SumOfPairs, PerfectColumnsScoreHigher) {
  al::Profile a1("AAAA"), a2("AAAA");
  auto aligned = al::align_profiles(a1, a2);
  al::Profile b1("AAAA"), b2("CCCC");
  auto mixed = al::align_profiles(b1, b2);
  EXPECT_GT(al::sum_of_pairs(aligned), al::sum_of_pairs(mixed));
}

TEST(SumOfPairs, SingleSequenceIsZero) {
  al::Profile p("ACGU");
  EXPECT_DOUBLE_EQ(al::sum_of_pairs(p), 0.0);
}
