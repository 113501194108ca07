// Sorting motif (paper Section 4 lists sorting among motif areas).
//
// parallel_merge_sort is deliberately built BY COMPOSITION from the
// divide-and-conquer motif — the paper's central claim is that new motifs
// come from combining existing ones — with a sequential std::sort base
// case (the "multilingual approach": low-level leaf work in low-level
// code, Section 2.1).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "motifs/dnc.hpp"
#include "motifs/parallel_for.hpp"
#include "runtime/machine.hpp"

namespace motif {

/// Stable contract: returns a sorted copy. `grain` is the base-case size.
template <class T, class Cmp = std::less<T>>
std::vector<T> parallel_merge_sort(rt::Machine& m, std::vector<T> data,
                                   std::size_t grain = 2048, Cmp cmp = {}) {
  using Vec = std::vector<T>;
  return divide_and_conquer<Vec, Vec>(
      m, std::move(data),
      /*is_base=*/[grain](const Vec& v) { return v.size() <= grain; },
      /*base=*/
      [cmp](Vec v) {
        std::sort(v.begin(), v.end(), cmp);
        return v;
      },
      /*divide=*/
      [](const Vec& v) {
        const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
        return std::array{Vec(v.begin(), mid), Vec(mid, v.end())};
      },
      /*combine=*/
      [cmp](const Vec&, std::vector<Vec> rs) {
        Vec out;
        out.reserve(rs[0].size() + rs[1].size());
        std::merge(rs[0].begin(), rs[0].end(), rs[1].begin(), rs[1].end(),
                   std::back_inserter(out), cmp);
        return out;
      });
}

/// Sample sort: splitters from a sample partition the input into one
/// bucket per processor; buckets sort in parallel (one task per node) and
/// concatenate. Better bucket locality than mergesort for large inputs.
template <class T, class Cmp = std::less<T>>
std::vector<T> parallel_sample_sort(rt::Machine& m, std::vector<T> data,
                                    Cmp cmp = {}) {
  const std::size_t p = m.node_count();
  if (data.size() < 4 * p || p == 1) {
    std::sort(data.begin(), data.end(), cmp);
    return data;
  }
  // Splitters: sort an 8p-point sample, take every 8th.
  std::vector<T> sample;
  const std::size_t step = std::max<std::size_t>(1, data.size() / (8 * p));
  for (std::size_t i = 0; i < data.size(); i += step) sample.push_back(data[i]);
  std::sort(sample.begin(), sample.end(), cmp);
  std::vector<T> splitters;
  for (std::size_t k = 1; k < p; ++k) {
    splitters.push_back(sample[k * sample.size() / p]);
  }
  // Scatter into buckets.
  std::vector<std::vector<T>> buckets(p);
  for (auto& x : data) {
    const std::size_t b = static_cast<std::size_t>(
        std::upper_bound(splitters.begin(), splitters.end(), x, cmp) -
        splitters.begin());
    buckets[b].push_back(std::move(x));
  }
  // Sort buckets in parallel, one per node.
  parallel_blocks(m, 0, p, [&](std::uint32_t b, std::size_t, std::size_t) {
    std::sort(buckets[b].begin(), buckets[b].end(), cmp);
  });
  std::vector<T> out;
  out.reserve(data.size());
  for (auto& b : buckets) {
    out.insert(out.end(), std::make_move_iterator(b.begin()),
               std::make_move_iterator(b.end()));
  }
  return out;
}

}  // namespace motif
