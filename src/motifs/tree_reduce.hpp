// The two tree-reduction motifs of the paper's case study, as native C++
// skeletons over the simulated multicomputer, plus the static-partition
// baseline the paper mentions ("A static partition of the tree is
// probably ideal in the simple arithmetic example", Section 3.1).
//
// tree_reduce1 — Section 3.4 (Tree-Reduce-1 = Server ∘ Rand ∘ Tree1):
//   divide and conquer; at each node one subtree is shipped to a
//   randomly selected processor, the other is evaluated locally; the
//   node value is computed (on the node's home processor) when both
//   subtree values are available. Many evaluations can be live on one
//   processor simultaneously.
//
// tree_reduce2 — Section 3.5 (Tree-Reduce-2 = Server ∘ Tree-Reduce):
//   every tree node is labelled with a processor (parent = left child's
//   label; sibling leaves share a label, so at most ONE of each node's
//   two offspring values crosses processors); leaf values are sent to
//   their parents' processors, one message per processor; values meet in
//   per-node pending slots; a value whose parent shares its processor is
//   combined in place, so only values that cross processors become
//   messages; each processor evaluates one node at a time (processors
//   are sequential executors), bounding the number of live intermediate
//   values.
//
// static_tree_reduce — the baseline: the top of the tree is cut at a
//   fixed depth and each resulting subtree is reduced sequentially on a
//   deterministically assigned processor; the cap is combined as values
//   arrive. No dynamic balancing.
//
// All three return the same value as reduce_sequential (tested as a
// property over random trees) and differ only in schedule, messages and
// memory — exactly the comparison the paper draws.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "motifs/tree.hpp"
#include "runtime/machine.hpp"
#include "runtime/metrics.hpp"
#include "runtime/svar.hpp"

namespace motif {

/// Victim-selection policy for tree_reduce1 (ablation: DESIGN.md §5).
enum class MapPolicy { Random, RoundRobin };

/// Labelling policy for tree_reduce2 (ablation: DESIGN.md §5). Paper =
/// Section 3.5's rule (parent = left child's label, sibling leaves
/// share); IndependentRandom drops both constraints, so every value
/// message has a 1-1/P chance of crossing processors.
enum class LabelPolicy { Paper, IndependentRandom };

namespace detail {

template <class V, class Tag, class Eval>
struct TR1 : std::enable_shared_from_this<TR1<V, Tag, Eval>> {
  rt::Machine& m;
  Eval eval;
  MapPolicy policy;
  std::atomic<std::uint32_t> rr{0};

  TR1(rt::Machine& mm, Eval e, MapPolicy p)
      : m(mm), eval(std::move(e)), policy(p) {}

  rt::NodeId pick() {
    if (policy == MapPolicy::RoundRobin) {
      return rr.fetch_add(1, std::memory_order_relaxed) % m.node_count();
    }
    return m.random_node();
  }

  void reduce(const typename Tree<V, Tag>::Ptr& t, rt::SVar<V> out) {
    if (t->is_leaf()) {
      out.bind(t->value());
      return;
    }
    rt::SVar<V> lv, rv;
    // Ship the right subtree to another processor (the paper's
    // "reduce(R,RV)@random"); keep the left at home. Continuations hold
    // the engine via shared_ptr: with the *_async entry point there is
    // no caller frame pinning it until quiescence.
    auto self = this->shared_from_this();
    m.post(pick(), [self, r = t->right(), rv] { self->reduce(r, rv); });
    const rt::NodeId home = rt::Machine::current_node() == rt::kNoNode
                                ? 0
                                : rt::Machine::current_node();
    // Left subtree continues on this node, as its own process.
    m.post(home, [self, l = t->left(), lv] { self->reduce(l, lv); });
    rt::when_both(lv, rv,
                  [self, home, tag = t->tag(), out](const V& l, const V& r) {
                    // The evaluation is INITIATED here — in the paper,
                    // "each reduce message received by a server causes the
                    // initiation of an independent computation" — so the
                    // active-evaluation scope opens now, even though the
                    // task may queue behind others on the home node. This
                    // is exactly the pile-up Tree-Reduce-2 eliminates.
                    auto scope = std::make_shared<rt::EvalScope>();
                    self->m.post(home, [self, tag, l, r, out, scope] {
                      TRACE_SPAN("tree_reduce1.eval");
                      out.bind(self->eval(tag, l, r));
                    });
                  });
  }
};

}  // namespace detail

/// Tree-Reduce-1, non-blocking: launches the reduction and returns the
/// result variable (named "tree_reduce1.result" for stall diagnostics)
/// without waiting. This is the form supervision wraps — the supervisor,
/// not the motif, owns the deadline (motifs/supervise.hpp).
template <class V, class Tag, class Eval>
rt::SVar<V> tree_reduce1_async(rt::Machine& m,
                               const typename Tree<V, Tag>::Ptr& tree,
                               Eval eval,
                               MapPolicy policy = MapPolicy::Random) {
  auto engine = std::make_shared<detail::TR1<V, Tag, Eval>>(
      m, std::move(eval), policy);
  rt::SVar<V> out;
  out.set_name("tree_reduce1.result");
  m.post(m.random_node(), [engine, tree, out] { engine->reduce(tree, out); });
  return out;
}

/// Tree-Reduce-1. Blocks the calling (external) thread until the value is
/// available. Eval: V(const Tag&, const V&, const V&).
template <class V, class Tag, class Eval>
V tree_reduce1(rt::Machine& m, const typename Tree<V, Tag>::Ptr& tree,
               Eval eval, MapPolicy policy = MapPolicy::Random) {
  auto out = tree_reduce1_async<V, Tag>(m, tree, std::move(eval), policy);
  // Quiesce first: wait_idle rethrows any exception a task (e.g. the
  // user's eval) threw; only then is the result guaranteed bound.
  m.wait_idle();
  return out.get();
}

namespace detail {

/// Preprocessing output for tree_reduce2: the labelled node table.
template <class V, class Tag>
struct TR2Plan {
  struct Entry {
    Tag tag{};
    std::int64_t parent = -1;   // -1 marks the root
    rt::NodeId parent_label = 0;
    bool is_right = false;      // side of this node within its parent
    rt::NodeId label = 0;
  };
  struct LeafMsg {
    std::int64_t parent;        // id of the parent entry
    rt::NodeId parent_label;
    bool is_right;
    rt::NodeId label;           // the leaf's own label (locality accounting)
    V value;
  };
  std::vector<Entry> entries;   // index = node id
  std::vector<LeafMsg> leaves;
};

/// Labels the tree (Section 3.5): ids in prefix order; the root's label
/// is random; a left child inherits its parent's label (so the parent's
/// label equals its left child's, as the paper specifies bottom-up); the
/// right child shares the label if both children are leaves (sibling
/// rule) and draws a fresh random label otherwise.
template <class V, class Tag>
TR2Plan<V, Tag> tr2_label(const typename Tree<V, Tag>::Ptr& root,
                          std::uint32_t processors, rt::Rng& rng,
                          LabelPolicy policy = LabelPolicy::Paper) {
  TR2Plan<V, Tag> plan;
  // Raw pointers: `root` pins the whole tree for the walk, so the stack
  // need not copy (and count) a shared_ptr per node.
  struct Item {
    const Tree<V, Tag>* t;
    rt::NodeId label;
    std::int64_t parent;
    rt::NodeId parent_label;
    bool is_right;
  };
  std::vector<Item> stack;
  stack.push_back({root.get(), static_cast<rt::NodeId>(rng.below(processors)),
                   -1, 0, false});
  while (!stack.empty()) {
    const Item it = stack.back();
    stack.pop_back();
    if (it.t->is_leaf()) {
      plan.leaves.push_back(
          {it.parent, it.parent_label, it.is_right, it.label,
           it.t->value()});
      continue;
    }
    const auto id = static_cast<std::int64_t>(plan.entries.size());
    plan.entries.push_back(
        {it.t->tag(), it.parent, it.parent_label, it.is_right, it.label});
    const bool both_leaves =
        it.t->left()->is_leaf() && it.t->right()->is_leaf();
    rt::NodeId left_label = it.label;
    rt::NodeId right_label =
        both_leaves ? it.label
                    : static_cast<rt::NodeId>(rng.below(processors));
    if (policy == LabelPolicy::IndependentRandom) {
      left_label = static_cast<rt::NodeId>(rng.below(processors));
      right_label = static_cast<rt::NodeId>(rng.below(processors));
    }
    // Push right first so the left subtree gets the next (prefix) ids —
    // purely cosmetic; correctness only needs parent ids to precede use.
    stack.push_back({it.t->right().get(), right_label, id, it.label, true});
    stack.push_back({it.t->left().get(), left_label, id, it.label, false});
  }
  return plan;
}

}  // namespace detail

/// Observability hook for tree_reduce2 (experiment E3): number of value
/// messages that crossed processors vs stayed local in the last call.
struct TR2Stats {
  std::uint64_t local_values = 0;
  std::uint64_t remote_values = 0;
};

namespace detail {

/// Where every offspring value of a plan travels is a pure function of
/// the labels: a value is remote exactly when its own label differs from
/// its parent's.
template <class V, class Tag>
TR2Stats tr2_stats(const TR2Plan<V, Tag>& plan) {
  TR2Stats s;
  const auto count = [&s](rt::NodeId from, rt::NodeId to) {
    ++(from == to ? s.local_values : s.remote_values);
  };
  for (const auto& e : plan.entries) {
    if (e.parent >= 0) count(e.label, e.parent_label);
  }
  for (const auto& leaf : plan.leaves) count(leaf.label, leaf.parent_label);
  return s;
}

/// The running state of one tree_reduce2 invocation. Only values that
/// cross processors become messages: a value whose parent lives on the
/// same processor is combined in place by the task that produced it.
template <class V, class Tag, class Eval>
struct TR2State : std::enable_shared_from_this<TR2State<V, Tag, Eval>> {
  using Plan = TR2Plan<V, Tag>;
  struct Partial {
    bool have_left = false, have_right = false;
    V left{}, right{};
  };

  rt::Machine& m;
  std::shared_ptr<Plan> plan;
  Eval eval;
  /// One pending slot per internal node (index = plan entry id). A slot
  /// is touched only by tasks of its node's processor, which run one at
  /// a time — no locks needed.
  std::vector<Partial> slots;
  rt::SVar<V> result;
  TR2State(rt::Machine& mm, std::shared_ptr<Plan> p, Eval e)
      : m(mm), plan(std::move(p)), eval(std::move(e)),
        slots(plan->entries.size()) {}

  /// Delivers one offspring value of entry `id` on that entry's
  /// processor. While the completed node's parent shares the processor
  /// the value moves up in this loop; a value bound for another
  /// processor is posted there.
  void arrive(std::int64_t id, bool is_right, V v) {
    for (;;) {
      Partial& p = slots[static_cast<std::size_t>(id)];
      (is_right ? p.right : p.left) = std::move(v);
      (is_right ? p.have_right : p.have_left) = true;
      if (!(p.have_left && p.have_right)) return;
      // Empty the slot: a duplicated message (fault injection) that lands
      // after the node combined must find one side missing, not complete
      // the node a second time.
      Partial ready = std::exchange(p, Partial{});
      const auto& e = plan->entries[static_cast<std::size_t>(id)];
      {
        rt::EvalScope scope;  // exactly one evaluation active per node
        TRACE_SPAN("tree_reduce2.combine");
        v = eval(e.tag, ready.left, ready.right);
      }
      if (e.parent < 0) {
        result.bind(std::move(v));
        return;
      }
      id = e.parent;
      is_right = e.is_right;
      if (e.parent_label != e.label) {
        // shared_ptr capture: the async entry point returns before the
        // run finishes, and a duplicated message can run after the root
        // binds, so in-flight messages are what keep the state alive.
        // The value is copied out, not moved: a duplicated task runs its
        // callable twice.
        m.post(e.parent_label, [self = this->shared_from_this(), id,
                                is_right, v = std::move(v)] {
          self->arrive(id, is_right, v);
        });
        return;
      }
    }
  }
};

/// Labels the tree and launches the leaf distribution; returns the state
/// (whose `result` variable, named "tree_reduce2.result", binds when the
/// root value is computed). Non-blocking.
template <class V, class Tag, class Eval>
std::shared_ptr<TR2State<V, Tag, Eval>> tr2_start(
    rt::Machine& m, const typename Tree<V, Tag>::Ptr& tree, Eval eval,
    LabelPolicy policy) {
  // A call-local generator: another node's rng() is not ours to draw
  // from, and concurrent launches must not share one.
  rt::Rng rng(m.random_u64());
  auto plan = std::make_shared<TR2Plan<V, Tag>>(
      tr2_label<V, Tag>(tree, m.node_count(), rng, policy));
  auto st = std::make_shared<TR2State<V, Tag, Eval>>(m, std::move(plan),
                                                     std::move(eval));
  st->result.set_name("tree_reduce2.result");
  // Initial distribution: each leaf value travels from the leaf's own
  // processor (its label) to its parent's processor. The values bound
  // for one processor travel together, as one message per processor.
  std::vector<std::vector<std::uint32_t>> to(m.node_count());
  const auto& leaves = st->plan->leaves;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    to[leaves[i].parent_label].push_back(static_cast<std::uint32_t>(i));
  }
  for (rt::NodeId n = 0; n < m.node_count(); ++n) {
    if (to[n].empty()) continue;
    m.post(n, [st, ids = std::move(to[n])] {
      for (const std::uint32_t i : ids) {
        const auto& leaf = st->plan->leaves[i];
        // Copy: messages move data by value between processors (CP.31).
        st->arrive(leaf.parent, leaf.is_right, leaf.value);
      }
    });
  }
  return st;
}

}  // namespace detail

/// Tree-Reduce-2, non-blocking: launches the reduction and returns the
/// result variable (named "tree_reduce2.result"). The supervised form in
/// motifs/supervise.hpp wraps this.
template <class V, class Tag, class Eval>
rt::SVar<V> tree_reduce2_async(rt::Machine& m,
                               const typename Tree<V, Tag>::Ptr& tree,
                               Eval eval,
                               LabelPolicy policy = LabelPolicy::Paper) {
  if (tree->is_leaf()) {
    rt::SVar<V> out;
    out.bind(tree->value());
    return out;
  }
  return detail::tr2_start<V, Tag>(m, tree, std::move(eval), policy)->result;
}

/// Tree-Reduce-2. Blocks the calling thread until the value is available.
template <class V, class Tag, class Eval>
V tree_reduce2(rt::Machine& m, const typename Tree<V, Tag>::Ptr& tree,
               Eval eval, TR2Stats* stats = nullptr,
               LabelPolicy policy = LabelPolicy::Paper) {
  if (tree->is_leaf()) return tree->value();
  auto st = detail::tr2_start<V, Tag>(m, tree, std::move(eval), policy);
  m.wait_idle();  // rethrows task exceptions; result is bound after this
  if (stats != nullptr) *stats = detail::tr2_stats(*st->plan);
  return st->result.get();
}

/// Static-partition baseline: cut the tree at `cut_depth` (default:
/// log2(processors)+1), reduce each piece sequentially on a processor
/// assigned round-robin, combine the cap as values arrive.
template <class V, class Tag, class Eval>
V static_tree_reduce(rt::Machine& m, const typename Tree<V, Tag>::Ptr& tree,
                     Eval eval, std::uint32_t cut_depth = 0) {
  if (cut_depth == 0) {
    std::uint32_t p = m.node_count();
    while (p > 1) {
      ++cut_depth;
      p /= 2;
    }
    ++cut_depth;
  }
  struct Engine {
    rt::Machine& m;
    Eval eval;
    std::atomic<std::uint32_t> next{0};

    Engine(rt::Machine& mm, Eval e) : m(mm), eval(std::move(e)) {}
    void go(const typename Tree<V, Tag>::Ptr& t, std::uint32_t depth,
            rt::SVar<V> out) {
      if (t->is_leaf() || depth == 0) {
        const rt::NodeId target =
            next.fetch_add(1, std::memory_order_relaxed) % m.node_count();
        m.post(target, [this, t, out] {
          TRACE_SPAN("static_tree_reduce.partition");
          out.bind(reduce_sequential<V, Tag>(t, eval));
        });
        return;
      }
      rt::SVar<V> lv, rv;
      go(t->left(), depth - 1, lv);
      go(t->right(), depth - 1, rv);
      rt::when_both(lv, rv, [this, tag = t->tag(), out](const V& l,
                                                        const V& r) {
        rt::EvalScope scope;
        TRACE_SPAN("static_tree_reduce.combine");
        out.bind(eval(tag, l, r));
      });
    }
  };
  auto engine = std::make_shared<Engine>(m, std::move(eval));
  rt::SVar<V> out;
  engine->go(tree, cut_depth, out);
  m.wait_idle();  // rethrows task exceptions; result is bound after this
  return out.get();
}

}  // namespace motif
