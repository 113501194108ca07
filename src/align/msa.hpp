// Multiple sequence alignment by guide-tree reduction — the paper's
// motivating application assembled end-to-end: leaves are single-sequence
// profiles, the align-node function (profile.hpp) is the eval operator,
// and any of the tree-reduction motifs produces the final alignment
// profile. "Defining eval to invoke the 'align-node' function provides a
// solution to the sequence alignment problem" (Section 3.1).
#pragma once

#include <string>
#include <vector>

#include "align/phylo.hpp"
#include "align/profile.hpp"
#include "motifs/tree.hpp"
#include "runtime/machine.hpp"

namespace motif::align {

enum class MsaSchedule {
  Sequential,   // reduce_sequential oracle
  TreeReduce1,  // random-mapped divide and conquer
  TreeReduce2,  // labelled, memory-bounded; idle processors share tiles
};

struct MsaResult {
  Profile profile;
  double sum_of_pairs_score = 0.0;
};

/// Builds the reduction tree for `seqs` under `guide` (taxon-indexed
/// leaves) and reduces it with the chosen schedule. All schedules produce
/// the same alignment (the guide tree fixes the combination order).
MsaResult progressive_msa(rt::Machine& m,
                          const std::vector<std::string>& seqs,
                          const Tree<int, char>::Ptr& guide,
                          MsaSchedule schedule = MsaSchedule::TreeReduce2,
                          const ProfileAlignParams& params = {});

/// Convenience: UPGMA guide tree from k-mer distances, then align.
MsaResult progressive_msa_auto(rt::Machine& m,
                               const std::vector<std::string>& seqs,
                               MsaSchedule schedule = MsaSchedule::TreeReduce2,
                               const ProfileAlignParams& params = {});

/// A complete synthetic benchmark family: Yule phylogeny + evolved
/// sequences + the true guide tree.
struct SyntheticFamily {
  std::vector<std::string> sequences;
  Tree<int, char>::Ptr guide;
};
SyntheticFamily synthetic_family(std::size_t taxa, std::size_t root_length,
                                 std::uint64_t seed);

}  // namespace motif::align
