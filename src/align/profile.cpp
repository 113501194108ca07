#include "align/profile.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "align/sequence.hpp"
#include "align/traceback.hpp"

namespace motif::align {

Profile::Profile(const std::string& seq) {
  cols_.reserve(seq.size());
  for (char c : seq) {
    Column col{};
    const int ix = symbol_index(c);
    col[static_cast<std::size_t>(ix < 0 ? 4 : ix)] = 1.0f;
    cols_.push_back(col);
  }
  depth_ = 1;
  tracked_.resize(footprint());
}

Profile Profile::assemble(std::vector<Column> cols, std::size_t depth) {
  Profile p;
  p.cols_ = std::move(cols);
  p.depth_ = depth;
  p.tracked_.resize(p.footprint());
  return p;
}

std::string Profile::consensus() const {
  std::string out;
  out.reserve(cols_.size());
  for (const auto& col : cols_) {
    const std::size_t best =
        static_cast<std::size_t>(std::max_element(col.begin(), col.end()) -
                                 col.begin());
    out.push_back(best == 4 ? kGap : kAlphabet[best]);
  }
  return out;
}

double Profile::mean_entropy() const {
  if (cols_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& col : cols_) {
    double n = 0.0;
    for (float f : col) n += f;
    if (n <= 0.0) continue;
    double h = 0.0;
    for (float f : col) {
      if (f > 0.0f) {
        const double q = f / n;
        h -= q * std::log2(q);
      }
    }
    total += h;
  }
  return total / static_cast<double>(cols_.size());
}

namespace {
// Score of one symbol pair: match or mismatch between bases, the gap
// penalty against a gap, and 0 for gap-gap.
double unit_score(std::size_t x, std::size_t y, const NWParams& p) {
  if (x == 4 || y == 4) return (x == y) ? 0.0 : p.gap;
  return (x == y) ? p.match : p.mismatch;
}
}  // namespace

double column_score(const Column& a, const Column& b, const NWParams& p) {
  double na = 0.0, nb = 0.0;
  for (float f : a) na += f;
  for (float f : b) nb += f;
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (a[i] <= 0.0f || b[j] <= 0.0f) continue;
      s += static_cast<double>(a[i]) * static_cast<double>(b[j]) *
           unit_score(i, j, p);
    }
  }
  return s / (na * nb);
}

namespace {
Column gap_column(float weight) {
  Column c{};
  c[4] = weight;
  return c;
}

Column merge_columns(const Column& a, const Column& b) {
  Column out{};
  for (std::size_t i = 0; i < 5; ++i) out[i] = a[i] + b[i];
  return out;
}

// A column of the second profile, folded with the unit-score table:
// w[x] = sum_y col[y] * unit(x, y), so column_score(a, col) is
// (sum_x a[x] * w[x]) / (na * n).
struct ScoredColumn {
  std::array<double, 5> w{};
  double n = 0.0;
};

// The distinct columns of a profile, numbered in first-seen order:
// id[i] is column i's number and first[k] the first column numbered k.
struct ColumnIds {
  std::vector<std::uint32_t> id, first;
};

ColumnIds column_ids(const Profile& p) {
  const std::size_t n = p.length();
  ColumnIds ids;
  ids.id.resize(n);
  // Open addressing over the column's five counts. Adding 0.0f maps a
  // -0 count to +0, so equal columns hash alike; equality is exact.
  unsigned bits = 4;
  while ((std::size_t{1} << bits) < 2 * n) ++bits;
  constexpr std::uint32_t kEmpty = UINT32_MAX;
  std::vector<std::uint32_t> slot(std::size_t{1} << bits, kEmpty);
  const std::size_t mask = slot.size() - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const Column& col = p.column(i);
    std::uint64_t h = 0;
    for (float f : col) {
      h = (h ^ std::bit_cast<std::uint32_t>(f + 0.0f)) * 0x9E3779B97F4A7C15u;
    }
    for (std::size_t s = h >> (64 - bits);; s = (s + 1) & mask) {
      if (slot[s] == kEmpty) {
        slot[s] = static_cast<std::uint32_t>(ids.first.size());
        ids.first.push_back(static_cast<std::uint32_t>(i));
      }
      if (p.column(ids.first[slot[s]]) == col) {
        ids.id[i] = slot[s];
        break;
      }
    }
  }
  return ids;
}

Profile align_on(rt::Machine* mach, const Profile& a, const Profile& b,
                 const ProfileAlignParams& params) {
  using detail::Move;
  const std::size_t n = a.length(), m = b.length();
  const NWParams& p = params.pairwise;

  // A cell's score depends only on its two columns, so the kernel scores
  // each pair of distinct columns once, into table[x * kb + y], and a
  // cell reads its entry. Column counts are whole numbers (see
  // Profile::assemble), so every product and partial sum of the regrouped
  // score is an exact integer and the one division rounds exactly as
  // column_score's does.
  const ColumnIds ia = column_ids(a), ib = column_ids(b);
  const std::size_t kb = ib.first.size();
  std::vector<ScoredColumn> bcols(kb);
  for (std::size_t y = 0; y < kb; ++y) {
    const Column& col = b.column(ib.first[y]);
    ScoredColumn& sc = bcols[y];
    for (std::size_t v = 0; v < 5; ++v) {
      sc.n += col[v];
      for (std::size_t x = 0; x < 5; ++x) {
        sc.w[x] += static_cast<double>(col[v]) * unit_score(x, v, p);
      }
    }
  }
  std::vector<double> table;
  table.reserve(ia.first.size() * kb);
  for (std::uint32_t first : ia.first) {
    const Column& col = a.column(first);
    std::array<double, 5> ac{};
    double na = 0.0;
    for (std::size_t v = 0; v < 5; ++v) {
      ac[v] = col[v];
      na += col[v];
    }
    for (const ScoredColumn& sc : bcols) {
      const double nab = na * sc.n;
      table.push_back(nab > 0.0 ? (ac[0] * sc.w[0] + ac[1] * sc.w[1] +
                                   ac[2] * sc.w[2] + ac[3] * sc.w[3] +
                                   ac[4] * sc.w[4]) /
                                      nab
                                : 0.0);
    }
  }
  auto row_sub = [&](std::size_t i) {
    return [entry = table.data() + ia.id[i - 1] * kb,
            idb = ib.id.data()](std::size_t j) { return entry[idb[j - 1]]; };
  };
  std::vector<Move> moves;
  detail::fill_moves(mach, n, m, static_cast<double>(p.gap), row_sub, moves);

  // Traceback, assembling merged columns.
  std::vector<Column> cols;
  cols.reserve(std::max(n, m));
  const float da = static_cast<float>(a.depth());
  const float db = static_cast<float>(b.depth());
  detail::trace_moves(moves, n, m, [&](Move mv, std::size_t i, std::size_t j) {
    switch (mv) {
      case Move::Diag:
        cols.push_back(merge_columns(a.column(i - 1), b.column(j - 1)));
        break;
      case Move::Up:
        cols.push_back(merge_columns(a.column(i - 1), gap_column(db)));
        break;
      case Move::Left:
        cols.push_back(merge_columns(gap_column(da), b.column(j - 1)));
        break;
    }
  });
  std::reverse(cols.begin(), cols.end());
  return Profile::assemble(std::move(cols), a.depth() + b.depth());
}
}  // namespace

Profile align_profiles(const Profile& a, const Profile& b,
                       const ProfileAlignParams& params) {
  return align_on(nullptr, a, b, params);
}

Profile align_profiles(rt::Machine& m, const Profile& a, const Profile& b,
                       const ProfileAlignParams& params) {
  return align_on(&m, a, b, params);
}

double sum_of_pairs(const Profile& p, const NWParams& params) {
  double s = 0.0;
  for (std::size_t i = 0; i < p.length(); ++i) {
    const Column& col = p.column(i);
    // Pairs within the column: match pairs of identical symbols,
    // mismatch pairs of different non-gap symbols, gap pairs.
    for (std::size_t x = 0; x < 5; ++x) {
      for (std::size_t y = x; y < 5; ++y) {
        double pairs;
        if (x == y) {
          pairs = static_cast<double>(col[x]) * (col[x] - 1.0) / 2.0;
        } else {
          pairs = static_cast<double>(col[x]) * col[y];
        }
        if (pairs <= 0.0) continue;
        s += pairs * unit_score(x, y, params);
      }
    }
  }
  return s;
}

}  // namespace motif::align
