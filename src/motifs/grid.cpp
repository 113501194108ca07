#include "motifs/grid.hpp"

#include <algorithm>
#include <vector>

#include "motifs/parallel_for.hpp"

namespace motif {

double jacobi_sweep_seq(const Grid2D& src, Grid2D& dst) {
  double max_delta = 0.0;
  for (std::size_t r = 1; r + 1 < src.rows(); ++r) {
    for (std::size_t c = 1; c + 1 < src.cols(); ++c) {
      const double v = 0.25 * (src.at(r - 1, c) + src.at(r + 1, c) +
                               src.at(r, c - 1) + src.at(r, c + 1));
      max_delta = std::max(max_delta, std::abs(v - src.at(r, c)));
      dst.at(r, c) = v;
    }
  }
  return max_delta;
}

JacobiResult jacobi_solve(rt::Machine& m, Grid2D& grid, JacobiOptions opts) {
  JacobiResult res;
  if (grid.rows() < 3 || grid.cols() < 3) {
    res.converged = true;
    return res;
  }
  Grid2D other = grid;  // write buffer starts as a copy (boundary kept)
  Grid2D* bufs[2] = {&grid, &other};
  int cur = 0;
  std::vector<double> deltas(m.node_count());  // per row block

  for (res.iterations = 0; res.iterations < opts.max_iters;
       ++res.iterations) {
    const Grid2D& src = *bufs[cur];
    Grid2D& dst = *bufs[1 - cur];
    // One row-block task per processor over the interior rows; each
    // records its block's max delta.
    const std::uint32_t blocks = parallel_blocks(
        m, 1, grid.rows() - 1,
        [&](std::uint32_t b, std::size_t r0, std::size_t r1) {
          double local = 0.0;
          for (std::size_t r = r0; r < r1; ++r) {
            for (std::size_t c = 1; c + 1 < src.cols(); ++c) {
              const double v = 0.25 * (src.at(r - 1, c) + src.at(r + 1, c) +
                                       src.at(r, c - 1) + src.at(r, c + 1));
              local = std::max(local, std::abs(v - src.at(r, c)));
              dst.at(r, c) = v;
            }
          }
          deltas[b] = local;
        });
    const double delta =
        *std::max_element(deltas.begin(), deltas.begin() + blocks);
    cur = 1 - cur;
    res.residual = delta;
    if (delta <= opts.tolerance) {
      ++res.iterations;
      res.converged = true;
      break;
    }
  }
  if (cur != 0) grid = other;  // result must land in the caller's grid
  return res;
}

}  // namespace motif
