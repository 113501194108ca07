// The two tree-reduction motifs of the paper's case study, as native C++
// skeletons over the simulated multicomputer, plus the static-partition
// baseline the paper mentions ("A static partition of the tree is
// probably ideal in the simple arithmetic example", Section 3.1).
//
// tree_reduce1 — Section 3.4 (Tree-Reduce-1 = Server ∘ Rand ∘ Tree1): an
//   instance of the divide-and-conquer engine (motifs/dnc.hpp); at each
//   node the right subtree is shipped to a randomly selected processor,
//   the left is evaluated locally; the node value is computed (on the
//   node's home processor) when both subtree values are available. Many
//   evaluations can be live on one processor simultaneously.
//
// tree_reduce2 — Section 3.5 (Tree-Reduce-2 = Server ∘ Tree-Reduce):
//   every tree node is labelled with a processor (parent = left child's
//   label; sibling leaves share a label, so at most ONE of each node's
//   two offspring values crosses processors). The caller labels only the
//   top of the tree; each subtree below cut_depth(P) is labelled on its
//   root's processor, by one task per processor, which copies each leaf
//   value into a batch for its parent's processor as it visits the leaf
//   and sends one batch per processor. Values meet in per-node pending
//   slots; a value whose parent shares its processor is combined in
//   place, so only values that cross processors travel. Each processor is
//   a server reading a stream of values: a batch sent to it joins its
//   inbox, and a drain task, queued only when none is queued yet (at most
//   one per processor at a time), delivers everything the inbox holds in
//   one task and sends what its combines produce as one batch per
//   destination processor. Each processor evaluates one node at a time
//   (processors are sequential executors), bounding the number of live
//   intermediate values.
//
// static_tree_reduce — the baseline, another instance of the engine: the
//   top of the tree is cut at a fixed depth and each resulting subtree is
//   reduced sequentially on a processor assigned round-robin; each cap
//   node is combined, as values arrive, on its leftmost piece's
//   processor. No dynamic balancing.
//
// All three return the same value as reduce_sequential (tested as a
// property over random trees) and differ only in schedule, messages and
// memory — exactly the comparison the paper draws.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "motifs/dnc.hpp"
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

/// Tree-Reduce-1, non-blocking: launches the reduction and returns the
/// result variable (named "tree_reduce1.result" for stall diagnostics)
/// without waiting. This is the form supervision wraps — the supervisor,
/// not the motif, owns the deadline (motifs/supervise.hpp).
template <class V, class Tag, class Eval>
rt::SVar<V> tree_reduce1_async(rt::Machine& m,
                               const typename Tree<V, Tag>::Ptr& tree,
                               Eval eval,
                               MapPolicy policy = MapPolicy::Random) {
  // Where the right subtree is shipped; the engine owns the counter.
  auto pick = [&m, policy,
               rr = std::make_unique<std::atomic<std::uint32_t>>(0)](
                  const TreeRange&) -> rt::NodeId {
    return policy == MapPolicy::Random
               ? m.random_node()
               : rr->fetch_add(1, std::memory_order_relaxed) % m.node_count();
  };
  auto out = detail::dnc_async<TreeRange, V>(
      m, m.random_node(), tree->range(),
      [](const TreeRange& t) { return t.is_leaf(); },
      [tree](const TreeRange& t) { return tree->storage().values[t.first]; },
      [tree](const TreeRange& t) {
        return std::array{tree->storage().left(t), tree->storage().right(t)};
      },
      [tree, eval = std::move(eval)](const TreeRange& t,
                                     std::vector<V> lr) mutable {
        TRACE_SPAN("tree_reduce1.eval");
        return eval(tree->storage().tags[t.id], lr[0], lr[1]);
      },
      std::move(pick));
  out.set_name("tree_reduce1.result");
  return out;
}

/// Tree-Reduce-1. Blocks the calling (external) thread until the value is
/// available; a lost value throws rt::RunIncomplete (Machine::wait_result).
/// Eval: V(const Tag&, const V&, const V&).
template <class V, class Tag, class Eval>
V tree_reduce1(rt::Machine& m, const typename Tree<V, Tag>::Ptr& tree,
               Eval eval, MapPolicy policy = MapPolicy::Random) {
  return m.wait_result(
      tree_reduce1_async<V, Tag>(m, tree, std::move(eval), policy));
}

/// Depth at which a tree is cut into per-processor pieces: log2(P)+1, so
/// a balanced tree yields about 2P subtrees. static_tree_reduce reduces
/// the pieces; tree_reduce2 hands their labelling to the processors.
inline std::uint32_t cut_depth(std::uint32_t processors) {
  std::uint32_t depth = 1;
  for (std::uint32_t p = processors; p > 1; p /= 2) ++depth;
  return depth;
}

/// Observability hook for tree_reduce2 (experiment E3): offspring values
/// that stayed on their processor vs crossed processors in the last call;
/// the messages its launch posted (labelling tasks plus leaf batches), as
/// counted by the caller and each labelling task; the value batches that
/// carried the crossing values, as counted by each processor; and the
/// drain tasks that delivered the batches on a Machine (zero across a
/// Cluster, whose frames are delivered one by one).
struct TR2Stats {
  std::uint64_t local_values = 0;
  std::uint64_t remote_values = 0;
  std::uint64_t launch_messages = 0;
  std::uint64_t value_messages = 0;
  std::uint64_t drains = 0;

  TR2Stats& operator+=(const TR2Stats& o) {
    local_values += o.local_values;
    remote_values += o.remote_values;
    launch_messages += o.launch_messages;
    value_messages += o.value_messages;
    drains += o.drains;
    return *this;
  }
};

namespace detail {

/// Parent link of the root node.
inline constexpr std::uint32_t kTR2Root =
    std::numeric_limits<std::uint32_t>::max();

/// Depth of a walk that labels all the way down.
inline constexpr std::uint32_t kNoCut =
    std::numeric_limits<std::uint32_t>::max();

/// The sender a batch of values is posted under; a leaf batch's sender is
/// the processor that labelled its leaves, or kNoNode for the caller.
inline constexpr rt::NodeId kTR2Values = rt::kNoNode - 1;

/// How TR2State's messages reach a processor of one Machine: a closure
/// posted to its node. Closures hold the state by shared_ptr, because the
/// async entry point returns before the run finishes and a duplicated
/// message can run after the root binds. A duplicate runs its callable
/// twice, so each closure stays fit to run again.
struct MachinePost {
  rt::Machine& m;

  std::uint32_t processors() const { return m.node_count(); }

  template <class State>
  void label(State& st, rt::NodeId n) {
    m.post(n, [self = st.shared_from_this(), n] { self->label_on(n); });
  }

  /// Moves the values of `b` to processor `n`'s inbox and posts a drain
  /// task to `n` unless one is queued already, so the values bound for a
  /// processor meet in one task however many senders produced them. An
  /// empty inbox swaps buffers with `b` instead, so the values are not
  /// copied and the sender keeps a buffer for its next batch.
  template <class State, class Batch>
  void batch(State& st, rt::NodeId /*from*/, rt::NodeId n, Batch& b) {
    auto& in = st.inboxes[n];
    {
      std::lock_guard lk(in.mu);
      if (in.pending.empty()) {
        in.pending.swap(b);
      } else {
        in.pending.insert(in.pending.end(), std::make_move_iterator(b.begin()),
                          std::make_move_iterator(b.end()));
      }
      if (std::exchange(in.scheduled, true)) return;
    }
    m.post(n, [self = st.shared_from_this(), n] { self->drain(n); });
  }

  template <class State, class V>
  void result(State& st, V v) {
    st.result.bind(std::move(v));
  }
};

/// The running state of one Tree-Reduce-2 invocation: the only TR2
/// engine (see the file comment). `Post` says how a message reaches a
/// processor: MachinePost, or DistTreeReduce2's wire across a Cluster.
/// Node records and pending slots are allocated once and left untouched:
/// each is first written by the walk that labels its node, on whichever
/// worker runs it.
template <class V, class Tag, class Eval, class Post = MachinePost>
struct TR2State : std::enable_shared_from_this<TR2State<V, Tag, Eval, Post>> {
  using TreeT = Tree<V, Tag>;
  /// One labelled internal node, indexed by prefix id (counted over
  /// internal nodes only).
  struct Node {
    std::uint32_t parent;  // prefix id of the parent; kTR2Root at the root
    rt::NodeId parent_label;
    rt::NodeId label;
    Tag tag;
    bool is_right;  // side of this node within its parent
  };
  /// A node the labelling walk has reached, with the label it was given:
  /// the subtree `r` of the tree's storage, whose root, if internal, has
  /// prefix id `r.id - base`.
  struct Item {
    TreeRange r;
    std::uint32_t parent;
    rt::NodeId label;
    rt::NodeId parent_label;
    bool is_right;
    std::uint32_t depth;
  };
  /// The value waiting at an internal node for its sibling's, and its
  /// side. No initialisers: the labelling walk writes `full` first.
  struct Slot {
    bool full;
    bool is_right;
    V value;
  };
  /// An offspring value of internal node `id`, bound for its processor.
  struct Arrival {
    std::uint32_t id;
    bool is_right;  // side of the value within node `id`
    V value;
  };
  /// The values one message carries to one processor.
  using Batch = std::vector<Arrival>;
  using Outbox = std::vector<Batch>;  // index = destination processor
  /// Where MachinePost queues the batches bound for one processor until a
  /// drain task delivers them; `scheduled` is set while a drain is queued.
  /// Padded: senders on other workers lock their destinations' inboxes.
  /// The rest belongs to the processor's own tasks, which run one at a
  /// time, and keeps its buffers from task to task, so a run allocates
  /// its batches once instead of once per task: the batch a drain takes,
  /// swapped with `pending`, and the task's value batches by destination.
  struct alignas(64) Inbox {
    std::mutex mu;
    Batch pending;
    bool scheduled = false;
    alignas(64) Batch taking;
    Outbox out;
  };
  /// What one task sends besides its leaf batches: the values its
  /// combines produced for other processors, one batch per destination.
  /// It holds the task's evaluation scope, which opens at the task's
  /// first combine and closes with the task (a processor runs one task
  /// at a time).
  struct TaskOut {
    std::optional<rt::EvalScope> scope;
    Outbox to;
  };
  /// The subtrees below the cut whose roots carry one label, labelled by
  /// one task on that processor: all of its labelling and leaf sends run
  /// before any of its combines, so no labelling waits behind an eval.
  struct Launch {
    std::vector<Item> roots;
    std::uint64_t seed;  // of the task's own generator
    bool labelled;       // once-flag: a duplicated task must not reset slots
    TR2Stats stats;      // counted by the tasks of this processor
    Outbox to;           // its leaf batches, once labelled
  };

  Post post;
  typename TreeT::Ptr tree;  // pins the storage the labelling walks read
  /// The storage id of the root: the tree may be a subtree of a larger
  /// storage, and the plan's prefix ids count from its own root.
  std::uint32_t base;
  Eval eval;
  LabelPolicy policy;
  std::unique_ptr<Node[]> nodes;  // index = prefix id
  /// One pending slot per internal node. A slot is touched only by tasks
  /// of its node's processor, which run one at a time — no locks needed —
  /// and only after the walk that labelled the node posted its leaves.
  std::unique_ptr<Slot[]> slots;
  std::vector<Launch> launches;  // index = processor; fixed before posting
  std::unique_ptr<Inbox[]> inboxes;  // index = processor
  Outbox top_to;                 // the caller's leaf batches
  TR2Stats top;                  // the caller's counts
  rt::SVar<V> result;

  TR2State(Post p, typename TreeT::Ptr t, Eval e, LabelPolicy pol)
      : post(std::move(p)),
        tree(std::move(t)),
        base(tree->range().id),
        eval(std::move(e)),
        policy(pol),
        nodes(std::make_unique_for_overwrite<Node[]>(
            tree->leaf_count() - 1)),
        slots(std::make_unique_for_overwrite<Slot[]>(tree->leaf_count() - 1)),
        launches(post.processors()),
        inboxes(std::make_unique<Inbox[]>(post.processors())) {}

  /// The caller's walk: labels the top of the tree and draws the seed of
  /// each launch's generator.
  void label_top(rt::Rng& rng) {
    const std::uint32_t procs = post.processors();
    const auto root_label = static_cast<rt::NodeId>(rng.below(procs));
    top_to.resize(procs);
    top = walk({tree->range(), kTR2Root, root_label, 0, false, 0}, rng,
               cut_depth(procs), top_to);
    for (Launch& l : launches) {
      if (!l.roots.empty()) l.seed = rng.next();
    }
  }

  /// Labels the subtrees of launch `n` from its own generator. Each leaf
  /// batch is sized up front for an even share of the launch's leaves,
  /// with room for the spread, so filing rarely regrows one.
  void label(rt::NodeId n) {
    Launch& l = launches[n];
    rt::Rng rng(l.seed);
    l.to.resize(post.processors());
    std::size_t leaves = 0;
    for (const Item& root : l.roots) leaves += root.r.leaves;
    const std::size_t share = leaves / post.processors();
    for (Batch& b : l.to) b.reserve(share + share / 4 + 8);
    for (const Item& root : l.roots) l.stats += walk(root, rng, kNoCut, l.to);
  }

  /// Every walk on the calling thread, posting nothing: for a substrate
  /// where any place may receive a value for any node, so each labels
  /// the whole tree itself (DistTreeReduce2, on every rank).
  void label_all(rt::Rng& rng) {
    label_top(rng);
    for (rt::NodeId n = 0; n < launches.size(); ++n) label(n);
  }

  /// After label_top: sends the caller's leaves and posts the labelling
  /// tasks.
  void start() {
    top.launch_messages = send(top_to, rt::kNoNode);
    top_to = {};
    for (rt::NodeId n = 0; n < launches.size(); ++n) {
      if (launches[n].roots.empty()) continue;
      ++top.launch_messages;
      post.label(*this, n);
    }
  }

  /// Runs on processor `n`: labels the subtrees rooted there (unless
  /// label_all did), sends their leaf batches, then delivers the one
  /// bound for `n` in place.
  void label_on(rt::NodeId n) {
    Launch& l = launches[n];
    if (std::exchange(l.labelled, true)) return;
    if (l.to.empty()) label(n);
    l.stats.launch_messages = send(l.to, n);
    l.to = {};  // frees the empty buffers the inboxes swapped back
  }

  /// Labels the tree below `top_item` (Section 3.5): a left child
  /// inherits its parent's label (so the parent's label equals its left
  /// child's, as the paper specifies bottom-up); the right child shares
  /// the label if both children are leaves (sibling rule) and draws a
  /// fresh random label otherwise. The walk follows the storage's prefix
  /// order, left child first, reading a node's tag and left-leaf count
  /// at its id and a leaf's value at its index. Internal nodes at depth
  /// `cut` (only the caller's walk has one) go to their label's launch
  /// and are not entered; each leaf's value is copied into the batch for
  /// its parent's processor. Returns the local/remote value counts of the
  /// nodes it labelled.
  TR2Stats walk(const Item& top_item, rt::Rng& rng, std::uint32_t cut,
                Outbox& to) {
    TR2Stats s;
    const TreeStorage<V, Tag>& ts = tree->storage();
    const std::uint32_t procs = post.processors();
    const auto draw = [&] { return static_cast<rt::NodeId>(rng.below(procs)); };
    const auto count = [&s](const Item& it) {
      if (it.parent == kTR2Root) return;
      ++(it.label == it.parent_label ? s.local_values : s.remote_values);
    };
    const auto file = [&](const Item& leaf) {
      count(leaf);
      // Copy: messages move data by value between processors (CP.31).
      to[leaf.parent_label].push_back(
          {leaf.parent, leaf.is_right, ts.values[leaf.r.first]});
    };
    // Prefix order, left child first: the draw order is part of the
    // labelling's identity (DistTreeReduce2 relabels from seeds on every
    // rank). The walk descends into a node's internal child without a
    // push, files leaf children as it reaches them, and stacks a right
    // child only while the left subtree is still to be walked.
    std::vector<Item> stack{top_item};
    while (!stack.empty()) {
      Item it = stack.back();
      stack.pop_back();
      for (;;) {
        if (it.r.is_leaf()) {
          file(it);
          break;
        }
        if (it.depth == cut) {
          launches[it.label].roots.push_back(it);
          break;
        }
        count(it);
        const std::uint32_t id = it.r.id - base;
        nodes[id] = {it.parent, it.parent_label, it.label, ts.tags[it.r.id],
                     it.is_right};
        slots[id].full = false;
        const TreeRange l = ts.left(it.r);
        const TreeRange r = ts.right(it.r);
        rt::NodeId left_label = it.label;
        rt::NodeId right_label =
            l.is_leaf() && r.is_leaf() ? it.label : draw();
        if (policy == LabelPolicy::IndependentRandom) {
          left_label = draw();
          right_label = draw();
        }
        const Item left{l, id, left_label, it.label, false, it.depth + 1};
        const Item right{r, id, right_label, it.label, true, it.depth + 1};
        if (!l.is_leaf()) {
          stack.push_back(right);
          it = left;
          continue;
        }
        file(left);
        if (r.is_leaf()) {
          file(right);
          break;
        }
        it = right;
      }
    }
    return s;
  }

  /// Posts each non-empty batch of `to` as sent by `from`, except the one
  /// for `here` (the processor running this task, if any), and empties
  /// it. Returns the messages posted.
  std::uint64_t post_batches(Outbox& to, rt::NodeId from, rt::NodeId here) {
    std::uint64_t posted = 0;
    for (rt::NodeId n = 0; n < to.size(); ++n) {
      if (n == here || to[n].empty()) continue;
      ++posted;
      post.batch(*this, from, n, to[n]);
      to[n].clear();
    }
    return posted;
  }

  /// Sends leaf batches as one message per processor, except that the
  /// one bound for `here` is delivered in place, after the posts. Returns
  /// the messages posted.
  std::uint64_t send(Outbox& to, rt::NodeId here) {
    const std::uint64_t posted = post_batches(to, here, here);
    if (here != rt::kNoNode) deliver(to[here], here);
    return posted;
  }

  /// A drain task on processor `n`: takes everything its inbox holds and
  /// delivers it in this one task. A duplicate finds the inbox empty, or
  /// holding values queued since, which it delivers early; either way
  /// each value is delivered once.
  void drain(rt::NodeId n) {
    Inbox& in = inboxes[n];
    {
      std::lock_guard lk(in.mu);
      in.taking.swap(in.pending);
      in.scheduled = false;
    }
    ++launches[n].stats.drains;
    deliver(in.taking, n);
  }

  /// One task's delivery of a batch on processor `here`, which it leaves
  /// empty: the values its combines produce for other processors leave
  /// when the loop ends, one batch per destination. A node's records were
  /// last written by the walk that labelled it, often on another worker,
  /// so the loop fetches them a few arrivals ahead: the misses overlap
  /// instead of queueing.
  void deliver(Batch& in, rt::NodeId here) {
    constexpr std::size_t kAhead = 8;
    TaskOut out{{}, std::move(inboxes[here].out)};
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (i + kAhead < in.size()) {
        __builtin_prefetch(&slots[in[i + kAhead].id], 1);
        __builtin_prefetch(&nodes[in[i + kAhead].id]);
      }
      Arrival& a = in[i];
      arrive(a.id, a.is_right, std::move(a.value), out);
    }
    in.clear();
    launches[here].stats.value_messages +=
        post_batches(out.to, kTR2Values, rt::kNoNode);
    inboxes[here].out = std::move(out.to);
  }

  /// Delivers one offspring value of node `id` on that node's processor.
  /// While the completed node's parent shares the processor the value
  /// moves up in this loop; a value bound for another processor goes to
  /// the task's batch for it.
  void arrive(std::uint32_t id, bool is_right, V v, TaskOut& out) {
    for (;;) {
      Slot& s = slots[id];
      if (!s.full) {
        s.value = std::move(v);
        s.is_right = is_right;
        s.full = true;
        return;
      }
      // A repeat of the waiting side (fault injection) is the same value.
      if (s.is_right == is_right) return;
      // Empty the slot: a duplicated message that lands after the node
      // combined must wait there alone, not complete the node again.
      const V waiting = std::exchange(s.value, V{});
      s.full = false;
      const Node& n = nodes[id];
      if (!out.scope) out.scope.emplace();
      {
        TRACE_SPAN("tree_reduce2.combine");
        v = is_right ? eval(n.tag, waiting, v) : eval(n.tag, v, waiting);
      }
      if (n.parent == kTR2Root) {
        post.result(*this, std::move(v));
        return;
      }
      id = n.parent;
      is_right = n.is_right;
      if (n.parent_label != n.label) {
        if (out.to.empty()) out.to.resize(post.processors());
        out.to[n.parent_label].push_back({id, is_right, std::move(v)});
        return;
      }
    }
  }

  /// Counts of the whole call; complete once the machine is idle.
  TR2Stats stats() const {
    TR2Stats s = top;
    for (const Launch& l : launches) s += l.stats;
    return s;
  }
};

/// Launches the reduction; returns the state (whose `result` variable,
/// named "tree_reduce2.result", binds when the root value is computed).
/// Non-blocking.
template <class V, class Tag, class Eval>
std::shared_ptr<TR2State<V, Tag, Eval>> tr2_start(
    rt::Machine& m, const typename Tree<V, Tag>::Ptr& tree, Eval eval,
    LabelPolicy policy) {
  auto st = std::make_shared<TR2State<V, Tag, Eval>>(
      MachinePost{m}, tree, std::move(eval), policy);
  st->result.set_name("tree_reduce2.result");
  // A call-local generator: another node's rng() is not ours to draw
  // from, and concurrent launches must not share one.
  rt::Rng rng(m.random_u64());
  st->label_top(rng);
  st->start();
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

/// Tree-Reduce-2. Blocks the calling thread until the value is available;
/// a lost value throws rt::RunIncomplete (Machine::wait_result).
template <class V, class Tag, class Eval>
V tree_reduce2(rt::Machine& m, const typename Tree<V, Tag>::Ptr& tree,
               Eval eval, TR2Stats* stats = nullptr,
               LabelPolicy policy = LabelPolicy::Paper) {
  if (tree->is_leaf()) return tree->value();
  auto st = detail::tr2_start<V, Tag>(m, tree, std::move(eval), policy);
  V out = m.wait_result(st->result);
  if (stats != nullptr) *stats = st->stats();
  return out;
}

/// Static-partition baseline: cut the tree at cut_depth(processors),
/// reduce each piece sequentially on a processor assigned round-robin,
/// combine the cap as values arrive.
template <class V, class Tag, class Eval>
V static_tree_reduce(rt::Machine& m, const typename Tree<V, Tag>::Ptr& tree,
                     Eval eval) {
  struct Cut {
    TreeRange r;
    std::uint32_t depth;  // levels left above the cut
    std::size_t piece;    // the index of its leftmost piece
  };
  // The caller's `tree` pins the storage: this call returns only once the
  // machine is idle.
  const TreeStorage<V, Tag>& s = tree->storage();
  auto out = detail::dnc_async<Cut, V>(
      m, 0, Cut{tree->range(), cut_depth(m.node_count()), 0},
      [](const Cut& c) { return c.r.is_leaf() || c.depth == 0; },
      [&](const Cut& c) {
        TRACE_SPAN("static_tree_reduce.partition");
        return reduce_range(s, c.r, eval);
      },
      [&s](const Cut& c) {
        // Piece k goes to processor k mod P. Pieces are counted as if
        // every subtree were balanced: one with d levels above the cut
        // holds min(leaves, 2^d) of them. On a balanced tree k is the
        // piece's left-to-right index, so the pieces are dealt
        // round-robin.
        const TreeRange l = s.left(c.r);
        const std::uint32_t d = c.depth - 1;
        const std::size_t left_pieces =
            d >= 64 ? l.leaves : std::min(l.leaves, std::size_t{1} << d);
        return std::array{Cut{l, d, c.piece},
                          Cut{s.right(c.r), d, c.piece + left_pieces}};
      },
      [&](const Cut& c, std::vector<V> lr) {
        TRACE_SPAN("static_tree_reduce.combine");
        return eval(s.tags[c.r.id], lr[0], lr[1]);
      },
      // A cap node splits, and so combines, where its leftmost piece goes.
      [&m](const Cut& c) {
        return static_cast<rt::NodeId>(c.piece % m.node_count());
      });
  return m.wait_result(out);
}

}  // namespace motif
