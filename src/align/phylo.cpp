#include "align/phylo.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "align/nw.hpp"
#include "align/sequence.hpp"

namespace motif::align {

Phylo::Ptr yule_tree(std::size_t taxa, rt::Rng& rng, double mean_branch) {
  if (taxa == 0) taxa = 1;
  auto make_leaf = [] {
    auto n = std::make_shared<Phylo>();
    n->taxon = 0;  // placeholder; renumbered below
    return n;
  };
  std::shared_ptr<Phylo> root = make_leaf();
  std::vector<std::shared_ptr<Phylo>> leaves{root};
  while (leaves.size() < taxa) {
    // Split a uniformly random extant lineage.
    const std::size_t pick = rng.below(leaves.size());
    std::shared_ptr<Phylo> node = leaves[pick];
    auto l = make_leaf();
    auto r = make_leaf();
    node->taxon = -1;
    node->left = l;
    node->right = r;
    node->left_len = rng.exponential(1.0 / mean_branch);
    node->right_len = rng.exponential(1.0 / mean_branch);
    leaves[pick] = l;
    leaves.push_back(r);
  }
  // Number taxa 0..taxa-1 left to right (deterministic given the rng).
  int counter = 0;
  std::function<void(Phylo*)> renumber = [&](Phylo* n) {
    if (!n->left) {
      n->taxon = counter++;
      return;
    }
    renumber(const_cast<Phylo*>(n->left.get()));
    renumber(const_cast<Phylo*>(n->right.get()));
  };
  renumber(root.get());
  return root;
}

std::vector<std::string> evolve_family(const Phylo::Ptr& tree,
                                       std::size_t root_length,
                                       rt::Rng& rng) {
  std::vector<std::string> out(tree->leaf_count());
  MutationModel model;
  std::function<void(const Phylo::Ptr&, const std::string&)> walk =
      [&](const Phylo::Ptr& n, const std::string& seq) {
        if (n->is_leaf()) {
          out[static_cast<std::size_t>(n->taxon)] = seq;
          return;
        }
        walk(n->left, evolve(seq, n->left_len, model, rng));
        walk(n->right, evolve(seq, n->right_len, model, rng));
      };
  walk(tree, random_sequence(rng, root_length));
  return out;
}

Tree<int, char>::Ptr upgma(std::vector<std::vector<double>> dist) {
  using GT = Tree<int, char>;
  const std::size_t n = dist.size();
  std::vector<GT::Ptr> clusters(n);
  std::vector<double> sizes(n, 1.0);
  std::vector<bool> alive(n, true);
  for (std::size_t i = 0; i < n; ++i) {
    clusters[i] = GT::leaf(static_cast<int>(i));
  }
  std::size_t remaining = n;
  while (remaining > 1) {
    // Find the closest live pair.
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!alive[j]) continue;
        if (dist[i][j] < best) {
          best = dist[i][j];
          bi = i;
          bj = j;
        }
      }
    }
    // Merge bj into bi.
    clusters[bi] = GT::node('+', clusters[bi], clusters[bj]);
    const double wi = sizes[bi], wj = sizes[bj];
    for (std::size_t k = 0; k < n; ++k) {
      if (!alive[k] || k == bi || k == bj) continue;
      const double d =
          (dist[bi][k] * wi + dist[bj][k] * wj) / (wi + wj);
      dist[bi][k] = dist[k][bi] = d;
    }
    sizes[bi] += sizes[bj];
    alive[bj] = false;
    --remaining;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i]) return clusters[i];
  }
  return nullptr;
}

std::vector<std::vector<double>> distance_matrix(
    const std::vector<std::string>& seqs) {
  const std::size_t n = seqs.size();
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      d[i][j] = d[j][i] = kmer_distance(seqs[i], seqs[j]);
    }
  }
  return d;
}

Tree<int, char>::Ptr guide_from_phylo(const Phylo::Ptr& tree) {
  using GT = Tree<int, char>;
  if (tree->is_leaf()) return GT::leaf(tree->taxon);
  return GT::node('+', guide_from_phylo(tree->left),
                  guide_from_phylo(tree->right));
}

}  // namespace motif::align
