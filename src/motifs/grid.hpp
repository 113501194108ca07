// Grid-problem motif (paper Section 4; and Section 1's DIME example — a
// system maintaining a mesh and handling communication for node-local
// user code).
//
// Grid2D is a dense 2-D field; jacobi_solve runs level-synchronous Jacobi
// sweeps for the Laplace/heat equation: the grid is partitioned into row
// blocks (one per processor); each iteration every block computes the
// 5-point stencil from the read buffer into the write buffer, then a
// join barrier flips buffers and tests convergence. The user supplies
// only the per-cell update via the stencil functor — the motif owns
// decomposition, synchronisation and convergence, like DIME.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/machine.hpp"

namespace motif {

class Grid2D {
 public:
  Grid2D(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_, cols_;
  std::vector<double> data_;
};

struct JacobiOptions {
  std::size_t max_iters = 10000;
  double tolerance = 1e-6;  // max |delta| per sweep
};

struct JacobiResult {
  std::size_t iterations = 0;
  double residual = 0.0;
  bool converged = false;
};

/// Jacobi relaxation with fixed (Dirichlet) boundary: interior cells
/// become the mean of their four neighbours each sweep. `grid` is updated
/// in place. Blocks the calling thread.
JacobiResult jacobi_solve(rt::Machine& m, Grid2D& grid,
                          JacobiOptions opts = {});

/// One sequential sweep (reference implementation / oracle); returns the
/// max absolute change. Reads `src`, writes `dst`.
double jacobi_sweep_seq(const Grid2D& src, Grid2D& dst);

}  // namespace motif
