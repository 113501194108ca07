// Private to src/align: the one global-alignment DP kernel. Every caller
// (needleman_wunsch, nw_score, nw_score_wavefront and align_profiles)
// updates cells with dp_row and records one Move byte per cell; the
// tiled callers fill the matrix with fill_moves on the wavefront engine
// and walk the bytes back with trace_moves, without rescoring.
//
// dp_row carries the cell to the left in a register, so the one
// loop-carried chain never waits on a reload of the cell just stored.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "motifs/wavefront.hpp"
#include "runtime/machine.hpp"

namespace motif::align::detail {

enum class Move : std::uint8_t { Diag, Up, Left };

/// Best of the three predecessors of a DP cell, recording which one won.
/// Ties go to diag, then up, then left: the leftmost maximum of
/// std::max({diag, up, left}), which is the move a traceback that
/// compares the cell with each predecessor in that order would pick.
/// Two strict compares, two selects and the move byte as arithmetic on
/// the compares, so the row loop has no branch.
template <class Score>
inline Score best_move(Score diag, Score up, Score left, Move& move) {
  const bool up_wins = up > diag;
  const Score best = up_wins ? up : diag;
  const bool left_wins = left > best;
  move = static_cast<Move>(2 * left_wins + (up_wins && !left_wins));
  return left_wins ? left : best;
}

/// The DP row update. On entry row[0..w] holds the previous row over
/// columns j0..j0+w; on return it holds this row over the same columns,
/// with row[0] = left (this row's cell in column j0). sub(j) is the
/// substitution score of column j; moves[k] gets column j0+1+k's move.
template <class Score, class Sub>
inline void dp_row(Score* row, std::size_t j0, std::size_t w, Score left,
                   Score gap, const Sub& sub, Move* moves) {
  Score diag = row[0];
  row[0] = left;
  for (std::size_t k = 1; k <= w; ++k) {
    const Score up = row[k];
    left = best_move(diag + sub(j0 + k), up + gap, left + gap, moves[k - 1]);
    row[k] = left;
    diag = up;
  }
}

/// Fills the moves of an n x m global alignment with linear gap penalty
/// `gap` (layout as trace_moves reads it) and returns the score of cell
/// (n, m). row_sub(i) returns the substitution scorer of DP row i
/// (1-based), called as sub(j). The matrix is cut into wavefront tiles;
/// each keeps its boundary row and column, so tiles of one anti-diagonal
/// run at once. With `mach` null the caller runs every tile itself.
template <class Score, class RowSub>
Score fill_moves(rt::Machine* mach, std::size_t n, std::size_t m, Score gap,
                 const RowSub& row_sub, std::vector<Move>& moves) {
  moves.resize(n * m);
  if (n == 0 || m == 0) return static_cast<Score>(std::max(n, m)) * gap;
  constexpr std::size_t T = kWavefrontTile;
  const std::size_t tr = (n + T - 1) / T, tc = (m + T - 1) / T;
  // top[bi] is DP row min(bi * T, n) and left[bj] DP column
  // min(bj * T, m): the boundaries tile (bi, bj) reads and then writes
  // for its lower and right neighbours.
  std::vector<Score> top((tr + 1) * (m + 1)), left((tc + 1) * (n + 1));
  for (std::size_t j = 0; j <= m; ++j) top[j] = static_cast<Score>(j) * gap;
  for (std::size_t i = 0; i <= n; ++i) left[i] = static_cast<Score>(i) * gap;
  for (std::size_t b = 1; b <= tr; ++b) {
    top[b * (m + 1)] = static_cast<Score>(std::min(b * T, n)) * gap;
  }
  for (std::size_t b = 1; b <= tc; ++b) {
    left[b * (n + 1)] = static_cast<Score>(std::min(b * T, m)) * gap;
  }
  auto tile = [&](std::size_t i0, std::size_t i1, std::size_t j0,
                  std::size_t j1) {
    const Score* above = top.data() + (i0 / T) * (m + 1);
    Score* below = top.data() + (i0 / T + 1) * (m + 1);
    const Score* lcol = left.data() + (j0 / T) * (n + 1);
    Score* rcol = left.data() + (j0 / T + 1) * (n + 1);
    const std::size_t w = j1 - j0;
    std::vector<Score> row(above + j0, above + j1 + 1);
    for (std::size_t i = i0 + 1; i <= i1; ++i) {
      dp_row(row.data(), j0, w, lcol[i], gap, row_sub(i),
             moves.data() + (i - 1) * m + j0);
      rcol[i] = row[w];
    }
    std::copy(row.begin() + 1, row.end(), below + j0 + 1);
  };
  motif::wavefront_tiles(mach, n, m, tile);
  return top[tr * (m + 1) + m];
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
