// Parallel prefix (scan) motif — the classic building block for the
// "sorting, grid problems ... and various graph theory" areas of the
// paper's Section 4, built by composition from parallel_blocks: per-block
// local scans, a small sequential scan of block totals, then a parallel
// offset fix-up.
#pragma once

#include <cstdint>
#include <vector>

#include "motifs/parallel_for.hpp"
#include "runtime/machine.hpp"

namespace motif {

/// In-place inclusive scan: data[i] = op(data[0], ..., data[i]).
/// `op` must be associative.
template <class T, class Op>
void parallel_inclusive_scan(rt::Machine& m, std::vector<T>& data, Op op) {
  const std::size_t n = data.size();
  if (n < 2) return;
  if (m.node_count() < 2) {
    for (std::size_t i = 1; i < n; ++i) data[i] = op(data[i - 1], data[i]);
    return;
  }
  // Phase 1: local scans. Both phases split [0, n) the same way.
  std::vector<T> totals(m.node_count());
  const std::uint32_t blocks = parallel_blocks(
      m, 0, n, [&](std::uint32_t b, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo + 1; i < hi; ++i) {
          data[i] = op(data[i - 1], data[i]);
        }
        totals[b] = data[hi - 1];
      });
  // Phase 2: inclusive scan of block totals (tiny, sequential).
  std::vector<T> offsets(blocks);
  offsets[0] = totals[0];
  for (std::size_t b = 1; b < blocks; ++b) {
    offsets[b] = op(offsets[b - 1], totals[b]);
  }
  // Phase 3: fix-up; block 0 is already final.
  parallel_blocks(m, 0, n,
                  [&](std::uint32_t b, std::size_t lo, std::size_t hi) {
                    if (b == 0) return;
                    for (std::size_t i = lo; i < hi; ++i) {
                      data[i] = op(offsets[b - 1], data[i]);
                    }
                  });
}

/// Exclusive scan with an identity: out[i] = fold of data[0..i).
template <class T, class Op>
std::vector<T> parallel_exclusive_scan(rt::Machine& m, std::vector<T> data,
                                       T identity, Op op) {
  parallel_inclusive_scan(m, data, op);
  std::vector<T> out(data.size());
  if (out.empty()) return out;
  out[0] = identity;
  for (std::size_t i = 1; i < data.size(); ++i) out[i] = data[i - 1];
  return out;
}

}  // namespace motif
