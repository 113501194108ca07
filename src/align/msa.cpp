#include "align/msa.hpp"

#include <stdexcept>

#include "motifs/tree_reduce.hpp"

namespace motif::align {

namespace {

using PTree = Tree<ProfilePtr, char>;

/// Turns the int-leaf guide tree into a profile-leaf reduction tree.
PTree::Ptr to_profile_tree(const Tree<int, char>::Ptr& guide,
                           const std::vector<std::string>& seqs) {
  return guide->map<ProfilePtr>([&seqs](int taxon) {
    if (taxon < 0 || static_cast<std::size_t>(taxon) >= seqs.size()) {
      throw std::out_of_range("guide tree taxon outside sequence family");
    }
    return std::make_shared<const Profile>(
        seqs[static_cast<std::size_t>(taxon)]);
  });
}

}  // namespace

MsaResult progressive_msa(rt::Machine& m,
                          const std::vector<std::string>& seqs,
                          const Tree<int, char>::Ptr& guide,
                          MsaSchedule schedule,
                          const ProfileAlignParams& params) {
  if (seqs.empty()) throw std::invalid_argument("no sequences");
  auto tree = to_profile_tree(guide, seqs);
  auto eval = [params](const char&, const ProfilePtr& a,
                       const ProfilePtr& b) -> ProfilePtr {
    return std::make_shared<const Profile>(align_profiles(*a, *b, params));
  };
  ProfilePtr out;
  switch (schedule) {
    case MsaSchedule::Sequential:
      out = reduce_sequential<ProfilePtr, char>(tree, eval);
      break;
    case MsaSchedule::TreeReduce1:
      out = tree_reduce1<ProfilePtr, char>(m, tree, eval);
      break;
    case MsaSchedule::TreeReduce2:
      // TR2 ∘ Wavefront: idle processors help with each node's tiles.
      out = tree_reduce2<ProfilePtr, char>(
          m, tree,
          [&m, params](const char&, const ProfilePtr& a,
                       const ProfilePtr& b) -> ProfilePtr {
            return std::make_shared<const Profile>(
                align_profiles(m, *a, *b, params));
          });
      break;
  }
  MsaResult r{*out, 0.0};
  r.sum_of_pairs_score = sum_of_pairs(r.profile, params.pairwise);
  return r;
}

MsaResult progressive_msa_auto(rt::Machine& m,
                               const std::vector<std::string>& seqs,
                               MsaSchedule schedule,
                               const ProfileAlignParams& params) {
  if (seqs.size() == 1) {
    Profile p(seqs[0]);
    double s = sum_of_pairs(p, params.pairwise);
    return {std::move(p), s};
  }
  auto guide = upgma(distance_matrix(seqs));
  return progressive_msa(m, seqs, guide, schedule, params);
}

SyntheticFamily synthetic_family(std::size_t taxa, std::size_t root_length,
                                 std::uint64_t seed) {
  rt::Rng rng(seed);
  auto phylo = yule_tree(taxa, rng);
  SyntheticFamily fam;
  fam.sequences = evolve_family(phylo, root_length, rng);
  fam.guide = guide_from_phylo(phylo);
  return fam;
}

}  // namespace motif::align
