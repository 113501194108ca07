// Private to src/align: the move record and traceback shared by the two
// global-alignment kernels (needleman_wunsch and align_profiles). Both run
// the forward pass over two rolling score rows, keep one Move byte per DP
// cell, and walk the bytes back without rescoring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace motif::align::detail {

enum class Move : std::uint8_t { Diag, Up, Left };

/// Best of the three predecessors of a DP cell, recording which one won.
/// Ties go to diag, then up, then left: the leftmost maximum of
/// std::max({diag, up, left}), which is the move a traceback that
/// compares the cell with each predecessor in that order would pick.
template <class Score>
inline Score best_move(Score diag, Score up, Score left, Move& move) {
  if (diag >= up && diag >= left) {
    move = Move::Diag;
    return diag;
  }
  if (up >= left) {
    move = Move::Up;
    return up;
  }
  move = Move::Left;
  return left;
}

/// Moves of an n x m global alignment, row-major: cell (i, j), 1-based,
/// is moves[(i - 1) * m + (j - 1)]. Row 0 always moves left, column 0 up.
/// `step(move, i, j)` is called for each cell on the path from (n, m) back
/// to (0, 0), excluding (0, 0); a Diag or Up step consumes a[i - 1], a
/// Diag or Left step consumes b[j - 1].
template <class Step>
void trace_moves(const std::vector<Move>& moves, std::size_t n, std::size_t m,
                 Step&& step) {
  std::size_t i = n, j = m;
  while (i > 0 || j > 0) {
    const Move mv = i == 0   ? Move::Left
                    : j == 0 ? Move::Up
                             : moves[(i - 1) * m + (j - 1)];
    step(mv, i, j);
    if (mv != Move::Left) --i;
    if (mv != Move::Up) --j;
  }
}

}  // namespace motif::align::detail
