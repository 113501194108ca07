// Binary reduction trees: the data structure both tree-reduction motifs
// operate on (paper Section 3.1). A tree is either leaf(value) or
// node(tag, left, right); reduction applies a user "eval" at every
// internal node — any associative (or simply well-parenthesised) operator.
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

/// Immutable binary tree. `V` is the leaf value type, `Tag` identifies the
/// operation at an internal node (e.g. char '+'/'*', or an index into an
/// application table). The leaf count is fixed at construction, so the
/// count of internal nodes — the ids Tree-Reduce-2 labels — is known
/// without a walk; it must fit in 32 bits.
template <class V, class Tag = char>
class Tree {
 public:
  using Ptr = std::shared_ptr<const Tree>;

  static Ptr leaf(V v) {
    auto t = std::make_shared<Tree>(Private{});
    t->value_ = std::move(v);
    return t;
  }

  static Ptr node(Tag tag, Ptr left, Ptr right) {
    const std::size_t leaves = left->leaves_ + right->leaves_;
    if (leaves - 1 > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("Tree: internal nodes exceed 32-bit ids");
    }
    auto t = std::make_shared<Tree>(Private{});
    t->leaves_ = leaves;
    t->tag_ = std::move(tag);
    t->left_ = std::move(left);
    t->right_ = std::move(right);
    return t;
  }

  bool is_leaf() const { return leaves_ == 1; }
  const V& value() const { return value_; }
  const Tag& tag() const { return tag_; }
  const Ptr& left() const { return left_; }
  const Ptr& right() const { return right_; }

  std::size_t leaf_count() const { return leaves_; }

  std::size_t node_count() const {  // internal + leaves
    return 2 * leaves_ - 1;
  }

  // Iterative: spine trees can be deeper than the call stack allows.
  std::size_t height() const {
    std::vector<std::pair<const Tree*, std::size_t>> stack{{this, 0}};
    std::size_t h = 0;
    while (!stack.empty()) {
      auto [t, d] = stack.back();
      stack.pop_back();
      h = std::max(h, d);
      if (!t->is_leaf()) {
        stack.push_back({t->left_.get(), d + 1});
        stack.push_back({t->right_.get(), d + 1});
      }
    }
    return h;
  }

  /// Pre-order visit of every node (iterative).
  template <class F>
  void walk(F&& f) const {
    std::vector<const Tree*> stack{this};
    while (!stack.empty()) {
      const Tree* t = stack.back();
      stack.pop_back();
      f(*t);
      if (!t->is_leaf()) {
        stack.push_back(t->left_.get());
        stack.push_back(t->right_.get());
      }
    }
  }

  // make_shared needs a public constructor; Private keeps it unusable
  // outside leaf()/node().
  struct Private {};
  explicit Tree(Private) {}

  ~Tree() {
    // Iterative teardown: a spine tree's node chain must not unwind via
    // recursive shared_ptr destruction.
    std::vector<Ptr> pending;
    auto grab = [&pending](Ptr& p) {
      if (p && p.use_count() == 1) pending.push_back(std::move(p));
      p.reset();
    };
    grab(left_);
    grab(right_);
    while (!pending.empty()) {
      Ptr t = std::move(pending.back());
      pending.pop_back();
      auto* m = const_cast<Tree*>(t.get());  // sole owner; safe to gut
      grab(m->left_);
      grab(m->right_);
    }
  }

 private:
  std::size_t leaves_ = 1;
  V value_{};
  Tag tag_{};
  Ptr left_, right_;
};

/// Sequential reduction (the correctness oracle for every parallel motif).
/// Eval: V(const Tag&, const V&, const V&). Iterative post-order so very
/// deep (spine) trees cannot overflow the stack.
template <class V, class Tag, class Eval>
V reduce_sequential(const typename Tree<V, Tag>::Ptr& root, Eval&& eval) {
  using Ptr = typename Tree<V, Tag>::Ptr;
  struct Frame {
    Ptr t;
    int stage = 0;  // 0: visit left, 1: visit right, 2: combine
    V lv{}, rv{};
  };
  std::vector<Frame> stack;
  stack.push_back({root});
  V result{};
  bool have_result = false;
  auto deliver = [&](V v) {
    // Pop the finished frame's value into its parent (or the result).
    for (;;) {
      if (stack.empty()) {
        result = std::move(v);
        have_result = true;
        return;
      }
      Frame& p = stack.back();
      if (p.stage == 1) {
        p.lv = std::move(v);
        return;
      }
      // stage == 2: right value arrived; combine and propagate.
      p.rv = std::move(v);
      V combined = eval(p.t->tag(), p.lv, p.rv);
      stack.pop_back();
      v = std::move(combined);
    }
  };
  while (!have_result) {
    Frame& f = stack.back();
    if (f.t->is_leaf()) {
      V v = f.t->value();
      stack.pop_back();
      deliver(std::move(v));
      continue;
    }
    if (f.stage == 0) {
      f.stage = 1;
      stack.push_back({f.t->left()});
    } else if (f.stage == 1) {
      f.stage = 2;
      stack.push_back({f.t->right()});
    }
  }
  return result;
}

/// Random binary tree with `leaves` leaves (uniform recursive split),
/// leaf values and tags drawn from the provided generators.
template <class V, class Tag>
typename Tree<V, Tag>::Ptr random_tree(
    rt::Rng& rng, std::size_t leaves,
    const std::function<V(rt::Rng&)>& leaf_gen,
    const std::function<Tag(rt::Rng&)>& tag_gen) {
  if (leaves == 1) return Tree<V, Tag>::leaf(leaf_gen(rng));
  const std::size_t lhs = 1 + rng.below(leaves - 1);
  Tag t = tag_gen(rng);
  auto l = random_tree<V, Tag>(rng, lhs, leaf_gen, tag_gen);
  auto r = random_tree<V, Tag>(rng, leaves - lhs, leaf_gen, tag_gen);
  return Tree<V, Tag>::node(std::move(t), std::move(l), std::move(r));
}

/// Perfectly balanced tree over `leaves` leaves.
template <class V, class Tag>
typename Tree<V, Tag>::Ptr balanced_tree(
    std::size_t leaves, const std::function<V(std::size_t)>& leaf_at,
    Tag tag, std::size_t first = 0) {
  if (leaves == 1) return Tree<V, Tag>::leaf(leaf_at(first));
  const std::size_t lhs = leaves / 2;
  return Tree<V, Tag>::node(
      tag, balanced_tree<V, Tag>(lhs, leaf_at, tag, first),
      balanced_tree<V, Tag>(leaves - lhs, leaf_at, tag, first + lhs));
}

/// Degenerate left-spine tree (worst case for naive parallelism).
template <class V, class Tag>
typename Tree<V, Tag>::Ptr spine_tree(
    std::size_t leaves, const std::function<V(std::size_t)>& leaf_at,
    Tag tag) {
  auto t = Tree<V, Tag>::leaf(leaf_at(0));
  for (std::size_t i = 1; i < leaves; ++i) {
    t = Tree<V, Tag>::node(tag, t, Tree<V, Tag>::leaf(leaf_at(i)));
  }
  return t;
}

}  // namespace motif
