// Phylogenies and guide trees.
//
// The paper's application "first generates a binary 'phylogenetic tree',
// in which subtrees represent clusters of more closely related organisms.
// Reduction of this tree using an 'align-node' function produces the
// desired alignment." The tree and sequences were given in the paper; we
// synthesise them: a Yule (pure-birth) phylogeny with exponential branch
// lengths, a root sequence evolved down the branches (sequence.hpp), and
// — for the realistic pipeline — a UPGMA guide tree rebuilt from pairwise
// k-mer distances, as progressive aligners do.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "motifs/tree.hpp"
#include "runtime/rng.hpp"

namespace motif::align {

/// A phylogeny node: leaves carry taxon indices; edges carry lengths.
struct Phylo {
  using Ptr = std::shared_ptr<const Phylo>;
  int taxon = -1;        // >= 0 at leaves
  double left_len = 0.0;
  double right_len = 0.0;
  Ptr left, right;
  bool is_leaf() const { return taxon >= 0; }
  std::size_t leaf_count() const {
    return is_leaf() ? 1 : left->leaf_count() + right->leaf_count();
  }
};

/// Yule process: starts from one lineage, repeatedly splits a uniformly
/// random leaf until there are `taxa` leaves; branch lengths are
/// exponential with the given mean.
Phylo::Ptr yule_tree(std::size_t taxa, rt::Rng& rng,
                     double mean_branch = 1.0);

/// A synthetic family: evolves a random root sequence of length
/// `root_length` down `tree`, returning one sequence per taxon (indexed
/// by taxon id).
std::vector<std::string> evolve_family(const Phylo::Ptr& tree,
                                       std::size_t root_length, rt::Rng& rng);

/// UPGMA clustering over a distance matrix; returns a guide tree whose
/// leaves are item indices (a Tree<int,char> reduction tree with '+' tags,
/// ready for the tree-reduction motifs).
Tree<int, char>::Ptr upgma(std::vector<std::vector<double>> dist);

/// Pairwise k-mer distance matrix (kmer_distance) for a sequence family.
std::vector<std::vector<double>> distance_matrix(
    const std::vector<std::string>& seqs);

/// Converts a phylogeny into the same guide-tree form (taxon indices at
/// leaves) — the "true tree" pipeline.
Tree<int, char>::Ptr guide_from_phylo(const Phylo::Ptr& tree);

}  // namespace motif::align
