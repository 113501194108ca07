// Binary reduction trees: the data structure both tree-reduction motifs
// operate on (paper Section 3.1). A tree is either leaf(value) or
// node(tag, left, right); reduction applies a user "eval" at every
// internal node — any associative (or simply well-parenthesised) operator.
//
// A tree is stored once, flat and in prefix order (DESIGN.md §5). Its
// internal nodes are numbered in left-first pre-order — the ids
// Tree-Reduce-2 labels — and `tags[id]` and `left_leaves[id]` (the leaves
// under node id's left child) describe them; `values` holds the leaves
// from left to right. A subtree is then a range (id, first, leaves): its
// leaves are values[first, first + leaves), its internal nodes have the
// ids [id, id + leaves - 1), and with L = left_leaves[id] its children
// are (id + 1, first, L) and (id + L, first + L, leaves - L). A Tree is a
// view of one range of one storage, so left() and right() share it;
// node() copies its operands into a new storage, so trees never share
// subtrees and each tree has exactly one representation. The reducers
// walk ranges and read the arrays directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/rng.hpp"

namespace motif {

/// A subtree of a TreeStorage: the leaves values[first, first + leaves)
/// and, unless it is a single leaf, the internal node `id` at its root.
struct TreeRange {
  std::uint32_t id = 0;
  std::size_t first = 0;
  std::size_t leaves = 1;

  bool is_leaf() const { return leaves == 1; }
};

/// The prefix-order arrays of one tree (see the file comment).
template <class V, class Tag>
struct TreeStorage {
  std::vector<Tag> tags;                   // index = internal prefix id
  std::vector<std::uint32_t> left_leaves;  // leaves under id's left child
  std::vector<V> values;                   // the leaves, left to right

  TreeRange left(const TreeRange& r) const {
    return {r.id + 1, r.first, left_leaves[r.id]};
  }
  TreeRange right(const TreeRange& r) const {
    const std::uint32_t l = left_leaves[r.id];
    return {r.id + l, r.first + l, r.leaves - l};
  }
};

/// Immutable binary tree. `V` is the leaf value type, `Tag` identifies the
/// operation at an internal node (e.g. char '+'/'*', or an index into an
/// application table). Its internal nodes — the ids Tree-Reduce-2 labels —
/// must fit in 32 bits.
template <class V, class Tag = char>
class Tree {
 public:
  using Ptr = std::shared_ptr<const Tree>;
  using Storage = TreeStorage<V, Tag>;

  /// Throws std::length_error unless a tree of `leaves` leaves can be
  /// built: at least one leaf, and internal-node ids that fit 32 bits.
  /// Every builder checks before it allocates.
  static std::size_t check_leaf_count(std::size_t leaves) {
    if (leaves - 1 > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("Tree: internal nodes exceed 32-bit ids");
    }
    return leaves;
  }

  /// The tree `s` describes; its arrays must be a tree's prefix order.
  static Ptr from_storage(Storage s) {
    const std::size_t leaves = check_leaf_count(s.values.size());
    if (s.tags.size() != leaves - 1 || s.left_leaves.size() != leaves - 1) {
      throw std::invalid_argument("Tree: storage arrays disagree in size");
    }
    return view(std::make_shared<const Storage>(std::move(s)),
                {0, 0, leaves});
  }

  static Ptr leaf(V v) {
    Storage s;
    s.values.push_back(std::move(v));
    return from_storage(std::move(s));
  }

  /// A new tree whose storage holds copies of both operands.
  static Ptr node(Tag tag, const Ptr& left, const Ptr& right) {
    const std::size_t leaves =
        check_leaf_count(left->leaf_count() + right->leaf_count());
    Storage s;
    s.tags.reserve(leaves - 1);
    s.left_leaves.reserve(leaves - 1);
    s.values.reserve(leaves);
    s.tags.push_back(std::move(tag));
    s.left_leaves.push_back(static_cast<std::uint32_t>(left->leaf_count()));
    left->append_to(s, std::identity{});
    right->append_to(s, std::identity{});
    return from_storage(std::move(s));
  }

  bool is_leaf() const { return r_.is_leaf(); }
  const V& value() const { return s_->values[r_.first]; }
  const Tag& tag() const { return s_->tags[r_.id]; }
  Ptr left() const { return view(s_, s_->left(r_)); }
  Ptr right() const { return view(s_, s_->right(r_)); }

  std::size_t leaf_count() const { return r_.leaves; }

  std::size_t node_count() const {  // internal + leaves
    return 2 * r_.leaves - 1;
  }

  /// The storage this tree is a range of, and the range.
  const Storage& storage() const { return *s_; }
  const TreeRange& range() const { return r_; }

  // Iterative: spine trees can be deeper than the call stack allows.
  std::size_t height() const {
    std::vector<std::pair<TreeRange, std::size_t>> stack{{r_, 0}};
    std::size_t h = 0;
    while (!stack.empty()) {
      auto [r, d] = stack.back();
      stack.pop_back();
      h = std::max(h, d);
      if (!r.is_leaf()) {
        stack.push_back({s_->right(r), d + 1});
        stack.push_back({s_->left(r), d + 1});
      }
    }
    return h;
  }

  /// A tree of this shape whose leaves are f(value), in one new storage:
  /// the shape is copied once, where a rebuild through node() would copy
  /// it at every level.
  template <class W, class F>
  typename Tree<W, Tag>::Ptr map(F&& f) const {
    TreeStorage<W, Tag> out;
    out.values.reserve(r_.leaves);
    append_to(out, f);
    return Tree<W, Tag>::from_storage(std::move(out));
  }

  /// Pre-order visit of every node (iterative). `f` sees each node as a
  /// Tree that is valid only during its call.
  template <class F>
  void walk(F&& f) const {
    Tree at = *this;
    std::vector<TreeRange> stack{r_};
    while (!stack.empty()) {
      at.r_ = stack.back();
      stack.pop_back();
      f(static_cast<const Tree&>(at));
      if (!at.is_leaf()) {
        stack.push_back(s_->right(at.r_));
        stack.push_back(s_->left(at.r_));
      }
    }
  }

  // make_shared needs a public constructor; Private keeps it unusable
  // outside the builders.
  struct Private {};
  Tree(Private, std::shared_ptr<const Storage> s, TreeRange r)
      : s_(std::move(s)), r_(r) {}

 private:
  static Ptr view(std::shared_ptr<const Storage> s, TreeRange r) {
    return std::make_shared<const Tree>(Private{}, std::move(s), r);
  }

  /// Appends this subtree's nodes to `out`, in prefix order, with each
  /// leaf value mapped through `f`.
  template <class W, class F>
  void append_to(TreeStorage<W, Tag>& out, F&& f) const {
    const auto copy = [this](const auto& from, auto& to) {
      to.insert(to.end(), from.begin() + r_.id,
                from.begin() + r_.id + (r_.leaves - 1));
    };
    copy(s_->tags, out.tags);
    copy(s_->left_leaves, out.left_leaves);
    for (std::size_t i = r_.first; i < r_.first + r_.leaves; ++i) {
      out.values.push_back(f(s_->values[i]));
    }
  }

  std::shared_ptr<const Storage> s_;
  TreeRange r_;
};

/// Sequential reduction of the subtree `r` of `s`: a left-first
/// post-order loop with a value stack, so very deep (spine) trees cannot
/// overflow the call stack. Eval: V(const Tag&, const V&, const V&).
template <class V, class Tag, class Eval>
V reduce_range(const TreeStorage<V, Tag>& s, TreeRange r, Eval&& eval) {
  struct Step {
    TreeRange r;
    bool combine;  // combine node r.id's two values; else reduce r
  };
  std::vector<V> values;
  std::vector<Step> todo{{r, false}};
  while (!todo.empty()) {
    const Step st = todo.back();
    todo.pop_back();
    if (st.combine) {
      V rv = std::move(values.back());
      values.pop_back();
      values.back() = eval(s.tags[st.r.id], values.back(), rv);
      continue;
    }
    TreeRange t = st.r;
    for (; !t.is_leaf(); t = s.left(t)) {
      todo.push_back({t, true});
      todo.push_back({s.right(t), false});
    }
    values.push_back(s.values[t.first]);
  }
  return std::move(values.back());
}

/// Sequential reduction (the correctness oracle for every parallel motif).
/// Eval: V(const Tag&, const V&, const V&).
template <class V, class Tag, class Eval>
V reduce_sequential(const typename Tree<V, Tag>::Ptr& root, Eval&& eval) {
  return reduce_range(root->storage(), root->range(), eval);
}

namespace detail {

/// Writes a tree of `leaves` leaves in prefix order, left child first: a
/// node of n leaves has split(n) of them on its left and the tag tag(),
/// called after split; leaf() gives the leaves' values from left to right.
template <class V, class Tag, class Split, class TagGen, class LeafGen>
typename Tree<V, Tag>::Ptr prefix_tree(std::size_t leaves, Split split,
                                       TagGen tag, LeafGen leaf) {
  Tree<V, Tag>::check_leaf_count(leaves);
  TreeStorage<V, Tag> s;
  s.tags.reserve(leaves - 1);
  s.left_leaves.reserve(leaves - 1);
  s.values.reserve(leaves);
  std::vector<std::size_t> pending{leaves};  // subtree sizes, next on top
  while (!pending.empty()) {
    const std::size_t n = pending.back();
    pending.pop_back();
    if (n == 1) {
      s.values.push_back(leaf());
      continue;
    }
    const std::size_t lhs = split(n);
    s.tags.push_back(tag());
    s.left_leaves.push_back(static_cast<std::uint32_t>(lhs));
    pending.push_back(n - lhs);
    pending.push_back(lhs);
  }
  return Tree<V, Tag>::from_storage(std::move(s));
}

}  // namespace detail

/// Random binary tree with `leaves` leaves (uniform recursive split),
/// leaf values and tags drawn from the provided generators in the order
/// the recursive definition draws: a node's split, its tag, then its left
/// subtree and its right one.
template <class V, class Tag>
typename Tree<V, Tag>::Ptr random_tree(
    rt::Rng& rng, std::size_t leaves,
    const std::function<V(rt::Rng&)>& leaf_gen,
    const std::function<Tag(rt::Rng&)>& tag_gen) {
  return detail::prefix_tree<V, Tag>(
      leaves, [&rng](std::size_t n) { return 1 + rng.below(n - 1); },
      [&] { return tag_gen(rng); }, [&] { return leaf_gen(rng); });
}

/// Perfectly balanced tree over `leaves` leaves; leaf i holds leaf_at(i).
template <class V, class Tag>
typename Tree<V, Tag>::Ptr balanced_tree(
    std::size_t leaves, const std::function<V(std::size_t)>& leaf_at,
    Tag tag) {
  return detail::prefix_tree<V, Tag>(
      leaves, [](std::size_t n) { return n / 2; }, [&tag] { return tag; },
      [&leaf_at, i = std::size_t{0}]() mutable { return leaf_at(i++); });
}

/// Degenerate left-spine tree (worst case for naive parallelism).
template <class V, class Tag>
typename Tree<V, Tag>::Ptr spine_tree(
    std::size_t leaves, const std::function<V(std::size_t)>& leaf_at,
    Tag tag) {
  return detail::prefix_tree<V, Tag>(
      leaves, [](std::size_t n) { return n - 1; }, [&tag] { return tag; },
      [&leaf_at, i = std::size_t{0}]() mutable { return leaf_at(i++); });
}

}  // namespace motif
