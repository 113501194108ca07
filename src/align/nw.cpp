#include "align/nw.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "align/sequence.hpp"
#include "align/traceback.hpp"
#include "motifs/wavefront.hpp"

namespace motif::align {

NWResult needleman_wunsch(const std::string& a, const std::string& b,
                          const NWParams& p) {
  using detail::Move;
  const std::size_t n = a.size(), m = b.size();
  // prev/cur: rows i-1 and i of the best scores aligning a[0..i) with
  // b[0..j); moves keeps each cell's winning predecessor for traceback.
  std::vector<std::int32_t> prev(m + 1), cur(m + 1);
  std::vector<Move> moves(n * m);
  for (std::size_t j = 0; j <= m; ++j) {
    prev[j] = static_cast<std::int32_t>(j) * p.gap;
  }
  for (std::size_t i = 1; i <= n; ++i) {
    Move* row = moves.data() + (i - 1) * m;
    cur[0] = static_cast<std::int32_t>(i) * p.gap;
    for (std::size_t j = 1; j <= m; ++j) {
      const std::int32_t diag =
          prev[j - 1] + (a[i - 1] == b[j - 1] ? p.match : p.mismatch);
      cur[j] = detail::best_move(diag, prev[j] + p.gap, cur[j - 1] + p.gap,
                                 row[j - 1]);
    }
    std::swap(prev, cur);
  }
  NWResult r;
  r.score = prev[m];
  std::string ra, rb;
  detail::trace_moves(moves, n, m, [&](Move mv, std::size_t i, std::size_t j) {
    ra.push_back(mv == Move::Left ? kGap : a[i - 1]);
    rb.push_back(mv == Move::Up ? kGap : b[j - 1]);
  });
  std::reverse(ra.begin(), ra.end());
  std::reverse(rb.begin(), rb.end());
  r.aligned_a = std::move(ra);
  r.aligned_b = std::move(rb);
  return r;
}

std::int32_t nw_score(const std::string& a, const std::string& b,
                      const NWParams& p) {
  const std::string& lo = a.size() <= b.size() ? a : b;
  const std::string& hi = a.size() <= b.size() ? b : a;
  std::vector<std::int32_t> prev(lo.size() + 1), cur(lo.size() + 1);
  for (std::size_t j = 0; j <= lo.size(); ++j) {
    prev[j] = static_cast<std::int32_t>(j) * p.gap;
  }
  for (std::size_t i = 1; i <= hi.size(); ++i) {
    cur[0] = static_cast<std::int32_t>(i) * p.gap;
    for (std::size_t j = 1; j <= lo.size(); ++j) {
      const std::int32_t diag =
          prev[j - 1] + (hi[i - 1] == lo[j - 1] ? p.match : p.mismatch);
      cur[j] = std::max({diag, prev[j] + p.gap, cur[j - 1] + p.gap});
    }
    std::swap(prev, cur);
  }
  return prev[lo.size()];
}

std::int32_t nw_score_wavefront(rt::Machine& m, const std::string& a,
                                const std::string& b,
                                const NWParams& params) {
  const std::size_t n = a.size(), mm = b.size();
  if (n == 0 || mm == 0) {
    return static_cast<std::int32_t>(std::max(n, mm)) * params.gap;
  }
  // Full (n+1) x (m+1) matrix; row/column 0 prefilled, the wavefront
  // computes the interior with tile-level parallelism.
  std::vector<std::int32_t> dp((n + 1) * (mm + 1));
  const std::size_t stride = mm + 1;
  for (std::size_t i = 0; i <= n; ++i) {
    dp[i * stride] = static_cast<std::int32_t>(i) * params.gap;
  }
  for (std::size_t j = 0; j <= mm; ++j) {
    dp[j] = static_cast<std::int32_t>(j) * params.gap;
  }
  motif::wavefront(
      m, n, mm,
      [&](std::size_t i0, std::size_t j0) {
        const std::size_t i = i0 + 1, j = j0 + 1;
        const std::int32_t diag =
            dp[(i - 1) * stride + (j - 1)] +
            (a[i - 1] == b[j - 1] ? params.match : params.mismatch);
        const std::int32_t up = dp[(i - 1) * stride + j] + params.gap;
        const std::int32_t left = dp[i * stride + (j - 1)] + params.gap;
        dp[i * stride + j] = std::max({diag, up, left});
      },
      /*tile=*/48);
  return dp[n * stride + mm];
}

double kmer_distance(const std::string& a, const std::string& b, int k) {
  if (a.size() < static_cast<std::size_t>(k) ||
      b.size() < static_cast<std::size_t>(k)) {
    return a == b ? 0.0 : 1.0;
  }
  auto census = [k](const std::string& s) {
    std::unordered_map<std::string, double> c;
    for (std::size_t i = 0; i + k <= s.size(); ++i) {
      c[s.substr(i, k)] += 1.0;
    }
    return c;
  };
  auto ca = census(a), cb = census(b);
  double shared = 0.0;
  for (const auto& [kmer, cnt] : ca) {
    auto it = cb.find(kmer);
    if (it != cb.end()) shared += std::min(cnt, it->second);
  }
  const double denom = static_cast<double>(
      std::min(a.size(), b.size()) - static_cast<std::size_t>(k) + 1);
  return 1.0 - shared / denom;
}

}  // namespace motif::align
