// Data-parallel loop utility over the machine's processors: blocks of the
// index range become tasks on distinct nodes. The workhorse behind the
// scan, grid, graph and sort motifs, exposed for applications.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/machine.hpp"
#include "runtime/svar.hpp"

namespace motif {

/// The library's one block fork-join. Splits [begin, end) into
/// min(P, end - begin) contiguous blocks, runs f(b, lo, hi) for block b
/// on node b, and returns the block count once every block ran. Blocks
/// the calling thread: the wait is Machine::wait_result, so a block's
/// error is rethrown and a lost block (a dead node) throws
/// rt::RunIncomplete instead of hanging. The call returns only when the
/// machine is idle, so `f` may capture the caller's frame by reference.
template <class F>
std::uint32_t parallel_blocks(rt::Machine& m, std::size_t begin,
                              std::size_t end, F f) {
  if (begin >= end) return 0;
  const std::size_t n = end - begin;
  struct Join {
    F& f;
    std::size_t begin, n;
    std::uint32_t blocks;
    std::atomic<std::uint32_t> ran;
    rt::SVar<std::uint32_t> all_ran;  // bound to `blocks` by the last block
  } j{f, begin, n,
      static_cast<std::uint32_t>(std::min<std::size_t>(m.node_count(), n)),
      {0}, {}};
  for (std::uint32_t b = 0; b < j.blocks; ++b) {
    m.post(b, [&j, b] {
      j.f(b, j.begin + b * j.n / j.blocks, j.begin + (b + 1) * j.n / j.blocks);
      // Relaxed: the caller reads the blocks' writes after wait_idle.
      if (j.ran.fetch_add(1, std::memory_order_relaxed) + 1 == j.blocks) {
        j.all_ran.bind(j.blocks);
      }
    });
  }
  return m.wait_result(j.all_ran);
}

/// Applies body(i) for i in [begin, end), one contiguous block per
/// processor (parallel_blocks). `body` must be safe to run on distinct
/// indices concurrently.
template <class Body>
void parallel_for(rt::Machine& m, std::size_t begin, std::size_t end,
                  Body body) {
  parallel_blocks(m, begin, end,
                  [&body](std::uint32_t, std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) body(i);
                  });
}

/// Parallel reduction of body(i) over [begin, end) with a commutative,
/// associative combiner and identity element.
template <class R, class Body, class Combine>
R parallel_reduce(rt::Machine& m, std::size_t begin, std::size_t end,
                  R identity, Body body, Combine combine) {
  std::vector<R> partials(m.node_count(), identity);
  const std::uint32_t blocks = parallel_blocks(
      m, begin, end, [&](std::uint32_t b, std::size_t lo, std::size_t hi) {
        R acc = identity;
        for (std::size_t i = lo; i < hi; ++i) {
          acc = combine(std::move(acc), body(i));
        }
        partials[b] = std::move(acc);
      });
  R acc = identity;
  for (std::uint32_t b = 0; b < blocks; ++b) {
    acc = combine(std::move(acc), std::move(partials[b]));
  }
  return acc;
}

}  // namespace motif
