// Divide-and-conquer and search motifs: fib/quadrature via D&C; n-queens,
// subset-sum and knapsack via the or-parallel search skeletons.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "motifs/dnc.hpp"
#include "motifs/search.hpp"

namespace m = motif;
namespace rt = motif::rt;

// ---- divide and conquer -----------------------------------------------------

TEST(DnC, FibonacciMatchesClosedLoop) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  auto fib = m::divide_and_conquer<int, long>(
      mach, 18,
      [](const int& n) { return n < 2; },
      [](int n) { return static_cast<long>(n); },
      [](const int& n) { return std::vector<int>{n - 1, n - 2}; },
      [](const int&, std::vector<long> rs) { return rs[0] + rs[1]; });
  long a = 0, b = 1;
  for (int i = 0; i < 18; ++i) {
    long t = a + b;
    a = b;
    b = t;
  }
  EXPECT_EQ(fib, a);
}

TEST(DnC, BaseCaseOnlyProblem) {
  rt::Machine mach({.nodes = 2, .workers = 1});
  auto r = m::divide_and_conquer<int, int>(
      mach, 5, [](const int&) { return true; }, [](int n) { return n * n; },
      [](const int&) { return std::vector<int>{}; },
      [](const int&, std::vector<int>) { return -1; });
  EXPECT_EQ(r, 25);
}

TEST(DnC, ThreeWaySplit) {
  // Sum over [0, 3^5) via ternary splits.
  rt::Machine mach({.nodes = 4, .workers = 2});
  using Range = std::pair<long, long>;
  auto r = m::divide_and_conquer<Range, long>(
      mach, Range{0, 243},
      [](const Range& x) { return x.second - x.first <= 3; },
      [](Range x) {
        long s = 0;
        for (long i = x.first; i < x.second; ++i) s += i;
        return s;
      },
      [](const Range& x) {
        const long third = (x.second - x.first) / 3;
        return std::vector<Range>{{x.first, x.first + third},
                                  {x.first + third, x.first + 2 * third},
                                  {x.first + 2 * third, x.second}};
      },
      [](const Range&, std::vector<long> rs) {
        return std::accumulate(rs.begin(), rs.end(), 0L);
      });
  EXPECT_EQ(r, 242L * 243 / 2);
}

TEST(DnC, QuadratureConverges) {
  // Adaptive-ish trapezoid integral of x^2 over [0,1] = 1/3.
  rt::Machine mach({.nodes = 4, .workers = 2});
  using Seg = std::pair<double, double>;
  auto f = [](double x) { return x * x; };
  auto r = m::divide_and_conquer<Seg, double>(
      mach, Seg{0.0, 1.0},
      [](const Seg& s) { return s.second - s.first < 1e-3; },
      [f](Seg s) {
        return 0.5 * (f(s.first) + f(s.second)) * (s.second - s.first);
      },
      [](const Seg& s) {
        const double mid = 0.5 * (s.first + s.second);
        return std::vector<Seg>{{s.first, mid}, {mid, s.second}};
      },
      [](const Seg&, std::vector<double> rs) { return rs[0] + rs[1]; });
  EXPECT_NEAR(r, 1.0 / 3.0, 1e-6);
}

// ---- search -----------------------------------------------------------------

namespace {

/// N-queens state: one queen per row, columns of placed queens.
struct Queens {
  int n;
  std::vector<int> cols;
  bool ok(int c) const {
    const int r = static_cast<int>(cols.size());
    for (int i = 0; i < r; ++i) {
      if (cols[i] == c || std::abs(cols[i] - c) == r - i) return false;
    }
    return true;
  }
};

std::vector<Queens> expand_queens(const Queens& q) {
  std::vector<Queens> out;
  if (static_cast<int>(q.cols.size()) == q.n) return out;
  for (int c = 0; c < q.n; ++c) {
    if (q.ok(c)) {
      Queens next = q;
      next.cols.push_back(c);
      out.push_back(std::move(next));
    }
  }
  return out;
}

bool queens_solved(const Queens& q) {
  return static_cast<int>(q.cols.size()) == q.n;
}

}  // namespace

class QueensCounts : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QueensCounts, MatchesKnownSolutionCounts) {
  const auto [n, expected] = GetParam();
  rt::Machine mach({.nodes = 8, .workers = 2});
  const auto count = m::count_solutions<Queens>(
      mach, Queens{n, {}}, expand_queens, queens_solved, 2);
  EXPECT_EQ(count, static_cast<std::uint64_t>(expected));
}

INSTANTIATE_TEST_SUITE_P(
    KnownBoards, QueensCounts,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 0}, std::pair{3, 0},
                      std::pair{4, 2}, std::pair{5, 10}, std::pair{6, 4},
                      std::pair{7, 40}, std::pair{8, 92}),
    [](const auto& info) {
      std::string name = "n";  // not "n" + ...: a GCC 12 -O3 -Wrestrict misfire
      name += std::to_string(info.param.first);
      return name;
    });

TEST(Search, FindFirstQueensSolutionIsValid) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  auto sol = m::find_first<Queens>(mach, Queens{6, {}}, expand_queens,
                                   queens_solved, 2);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->cols.size(), 6u);
  // Verify no attacks.
  for (std::size_t i = 0; i < sol->cols.size(); ++i) {
    for (std::size_t j = i + 1; j < sol->cols.size(); ++j) {
      EXPECT_NE(sol->cols[i], sol->cols[j]);
      EXPECT_NE(std::abs(sol->cols[i] - sol->cols[j]),
                static_cast<int>(j - i));
    }
  }
}

TEST(Search, FindFirstReturnsNulloptWhenNoSolution) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  auto sol = m::find_first<Queens>(mach, Queens{3, {}}, expand_queens,
                                   queens_solved, 1);
  EXPECT_FALSE(sol.has_value());
}

TEST(Search, CountOnDeepGrainStillCorrect) {
  rt::Machine mach({.nodes = 2, .workers = 2});
  // grain 0: everything sequential after root — still 92 for 8-queens.
  const auto count = m::count_solutions<Queens>(
      mach, Queens{8, {}}, expand_queens, queens_solved, 0);
  EXPECT_EQ(count, 92u);
}

namespace {

/// 0/1 knapsack state for branch&bound.
struct Knap {
  std::size_t idx = 0;
  std::int64_t weight = 0;
  std::int64_t value = 0;
};

struct KnapProblem {
  std::vector<std::int64_t> w, v;
  std::int64_t cap;
};

std::int64_t knap_best_seq(const KnapProblem& p) {
  std::vector<std::int64_t> dp(static_cast<std::size_t>(p.cap) + 1, 0);
  for (std::size_t i = 0; i < p.w.size(); ++i) {
    for (std::int64_t c = p.cap; c >= p.w[i]; --c) {
      dp[c] = std::max(dp[c], dp[c - p.w[i]] + p.v[i]);
    }
  }
  return dp[static_cast<std::size_t>(p.cap)];
}

}  // namespace

TEST(Search, BranchAndBoundKnapsackMatchesDP) {
  KnapProblem p;
  rt::Rng rng(99);
  for (int i = 0; i < 16; ++i) {
    p.w.push_back(1 + static_cast<std::int64_t>(rng.below(12)));
    p.v.push_back(1 + static_cast<std::int64_t>(rng.below(30)));
  }
  p.cap = 40;
  const std::int64_t expect = knap_best_seq(p);

  rt::Machine mach({.nodes = 4, .workers = 2});
  auto expand = [&p](const Knap& k) {
    std::vector<Knap> out;
    if (k.idx == p.w.size()) return out;
    out.push_back({k.idx + 1, k.weight, k.value});  // skip item
    if (k.weight + p.w[k.idx] <= p.cap) {
      out.push_back(
          {k.idx + 1, k.weight + p.w[k.idx], k.value + p.v[k.idx]});
    }
    return out;
  };
  auto value = [](const Knap& k) { return k.value; };
  auto bound = [&p](const Knap& k) {
    std::int64_t b = k.value;
    for (std::size_t i = k.idx; i < p.v.size(); ++i) b += p.v[i];
    return b;  // loose upper bound: take everything remaining
  };
  auto best = m::branch_and_bound<Knap>(mach, Knap{}, expand, value, bound, 3);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, expect);
}

TEST(Search, BranchAndBoundEmptySpace) {
  rt::Machine mach({.nodes = 2, .workers = 1});
  // Root expands to nothing and IS a leaf -> its value is the answer.
  auto best = m::branch_and_bound<int>(
      mach, 7, [](const int&) { return std::vector<int>{}; },
      [](const int& v) { return static_cast<std::int64_t>(v); },
      [](const int&) { return std::int64_t{100}; });
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 7);
}
