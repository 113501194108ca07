#include "align/nw.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "align/sequence.hpp"
#include "align/traceback.hpp"

namespace motif::align {

namespace {
// Substitution scorer of DP row i: a[i - 1] against b[j - 1]. It holds
// copies, not references, so a move-byte store cannot make the row loop
// reload them.
auto nw_row(const std::string& a, const std::string& b, const NWParams& p) {
  return [&a, bs = b.data(), &p](std::size_t i) {
    return [ai = a[i - 1], bs, match = p.match,
            mismatch = p.mismatch](std::size_t j) {
      return ai == bs[j - 1] ? match : mismatch;
    };
  };
}
}  // namespace

NWResult needleman_wunsch(const std::string& a, const std::string& b,
                          const NWParams& p) {
  using detail::Move;
  const std::size_t n = a.size(), m = b.size();
  std::vector<Move> moves;
  NWResult r;
  r.score = detail::fill_moves(nullptr, n, m, p.gap, nw_row(a, b, p), moves);
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
  // One rolling row; the moves of a row are written and never read.
  std::vector<std::int32_t> row(lo.size() + 1);
  std::vector<detail::Move> scratch(lo.size());
  for (std::size_t j = 0; j <= lo.size(); ++j) {
    row[j] = static_cast<std::int32_t>(j) * p.gap;
  }
  const auto row_sub = nw_row(hi, lo, p);
  for (std::size_t i = 1; i <= hi.size(); ++i) {
    detail::dp_row(row.data(), 0, lo.size(),
                   static_cast<std::int32_t>(i) * p.gap, p.gap, row_sub(i),
                   scratch.data());
  }
  return row[lo.size()];
}

std::int32_t nw_score_wavefront(rt::Machine& m, const std::string& a,
                                const std::string& b,
                                const NWParams& params) {
  std::vector<detail::Move> moves;
  return detail::fill_moves(&m, a.size(), b.size(), params.gap,
                            nw_row(a, b, params), moves);
}

double kmer_distance(const std::string& a, const std::string& b) {
  constexpr std::size_t kKmer = 3;
  if (a.size() < kKmer || b.size() < kKmer) return a == b ? 0.0 : 1.0;
  auto census = [](const std::string& s) {
    std::unordered_map<std::string, double> c;
    for (std::size_t i = 0; i + kKmer <= s.size(); ++i) {
      c[s.substr(i, kKmer)] += 1.0;
    }
    return c;
  };
  auto ca = census(a), cb = census(b);
  double shared = 0.0;
  for (const auto& [kmer, cnt] : ca) {
    auto it = cb.find(kmer);
    if (it != cb.end()) shared += std::min(cnt, it->second);
  }
  const double denom =
      static_cast<double>(std::min(a.size(), b.size()) - kKmer + 1);
  return 1.0 - shared / denom;
}

}  // namespace motif::align
