// Alignment profiles and the profile–profile "align-node" function: the
// node evaluation operator of the multiple-sequence-alignment tree
// reduction (paper Section 3). A profile summarises an alignment as
// per-column symbol frequencies (A,C,G,U,gap); aligning two profiles is a
// Needleman–Wunsch dynamic program over expected column-pair scores.
//
// Profiles register their footprint with rt::live_bytes() (TrackedBytes),
// which is how experiment E2 observes the "large intermediate data
// structures" that motivate Tree-Reduce-2.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "align/nw.hpp"
#include "runtime/metrics.hpp"

namespace motif::align {

/// One alignment column: counts for A,C,G,U and gap.
using Column = std::array<float, 5>;

class Profile {
 public:
  Profile() = default;

  /// Single-sequence profile.
  explicit Profile(const std::string& seq);

  std::size_t length() const { return cols_.size(); }
  std::size_t depth() const { return depth_; }  // sequences folded in
  const Column& column(std::size_t i) const { return cols_[i]; }

  /// Consensus string (most frequent symbol per column, gaps included).
  std::string consensus() const;

  /// Average per-column entropy (alignment quality diagnostic; conserved
  /// columns have low entropy).
  double mean_entropy() const;

  /// Bytes of column data (the tracked footprint).
  std::size_t footprint() const { return cols_.size() * sizeof(Column); }

  /// Internal: used by align_profiles to assemble results. Invariant:
  /// every count is a whole number and each column sums to `depth`.
  /// Profile(seq) writes 1.0 per column and align_profiles only adds
  /// columns and gap columns of weight depth(), so this holds for every
  /// profile; align_profiles' exactness depends on it.
  static Profile assemble(std::vector<Column> cols, std::size_t depth);

 private:
  std::vector<Column> cols_;
  std::size_t depth_ = 0;
  rt::TrackedBytes tracked_;
};

using ProfilePtr = std::shared_ptr<const Profile>;

struct ProfileAlignParams {
  NWParams pairwise{};  // match/mismatch/gap scores between symbols
};

/// The align-node function: globally aligns two profiles, producing the
/// merged profile of depth a.depth()+b.depth(). Cost is
/// O(a.length()*b.length()) — quadratic, so node costs in a guide tree
/// are non-uniform and grow toward the root, exactly the behaviour the
/// paper's dynamic motifs target.
///
/// A cell's score depends only on its two columns, and profiles repeat
/// columns, so the kernel numbers each profile's distinct columns and
/// scores each pair of distinct columns once, into a table, before the
/// DP; a DP cell reads its entry (two loads) and keeps one move byte. The
/// table holds at most one double per cell. Because counts are whole
/// numbers (see Profile::assemble), every entry equals column_score's bit
/// for bit, and the alignment is the one the plain O(n*m)-doubles DP with
/// a rescoring traceback produces: ties go to the diagonal, then the gap
/// in `b`, then the gap in `a`.
///
/// The DP runs as wavefront tiles (motifs/wavefront.hpp); this form runs
/// every tile on the calling thread.
Profile align_profiles(const Profile& a, const Profile& b,
                       const ProfileAlignParams& params = {});

/// The same kernel with idle processors of `m` helping with its tiles.
/// The result is identical byte for byte; the caller runs any tile no
/// helper takes, so it may be called from inside a task of `m`.
Profile align_profiles(rt::Machine& m, const Profile& a, const Profile& b,
                       const ProfileAlignParams& params = {});

/// Expected pairwise score of two columns under the NW scoring scheme:
/// the reference definition of an align_profiles cell score.
double column_score(const Column& a, const Column& b, const NWParams& p);

/// Sum-of-pairs score of a finished profile (higher is better), the
/// standard MSA quality measure restricted to column statistics.
double sum_of_pairs(const Profile& p, const NWParams& params = {});

}  // namespace motif::align
