// Distributed Tree-Reduce-2: the Section 3.5 motif across a Cluster,
// whose processors are global nodes that may live in other OS processes,
// so the paper's bound on inter-processor communication shows up as
// net_tx frames (EXPERIMENTS.md E3). The engine is native TR2's own
// (detail::TR2State); this file is its wire boundary (DESIGN.md §11).
// Every rank builds one engine per generation from (depth, seed) and runs
// all of its labelling walks itself, because a value for any of its nodes
// can come from any subtree. Rank 0 starts the run as native TR2 does,
// and each engine message becomes one Post frame, a tuple of integers:
//
//   tr2.arrive  {gen, depth, seed, batch, (id, is_right, value)...}
//   tr2.result  {gen, depth, seed, value}          root value → rank 0
//   tr2.label   {gen, depth, seed}                 label your subtrees
//
// An arrive frame is a leaf batch from processor `batch` (P: the caller)
// or, with batch -1, the values one task sent to one processor. Followers
// only serve(): the first frame of a generation tells a rank everything
// it needs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "motifs/tree.hpp"
#include "motifs/tree_reduce.hpp"
#include "net/cluster.hpp"
#include "runtime/svar.hpp"

namespace motif {

/// The deterministic balanced test tree every rank can rebuild from
/// (depth, seed): 2^depth leaves, values splitmix64-derived mod 1000.
inline Tree<long long, char>::Ptr dist_tr2_tree(std::uint32_t depth,
                                                std::uint64_t seed) {
  const std::size_t leaves = std::size_t{1} << depth;
  return balanced_tree<long long, char>(
      leaves,
      [seed](std::size_t i) {
        std::uint64_t s = seed + 0x9E3779B97F4A7C15ull * (i + 1);
        return static_cast<long long>(rt::splitmix64(s) % 1000);
      },
      '+');
}

namespace detail {

struct DistTR2Sum {
  long long operator()(char, long long a, long long b) const { return a + b; }
};

/// One generation's engine for dist_tr2_tree(depth, seed), labelled in
/// full as every rank labels it; nothing is posted until start(). `post`
/// says how its messages travel and how many processors there are.
template <class Post>
auto dist_tr2_engine(std::uint32_t depth, std::uint64_t seed, Post post) {
  auto st = std::make_shared<TR2State<long long, char, DistTR2Sum, Post>>(
      std::move(post), dist_tr2_tree(depth, seed), DistTR2Sum{},
      LabelPolicy::Paper);
  rt::Rng rng(seed ^ 0xD157ull);
  st->label_all(rng);
  return st;
}

}  // namespace detail

/// Sum-reduction of dist_tr2_tree over a cluster. Construct on every rank
/// (before Cluster::start(), so the handler registry matches), then call
/// run() on rank 0 only.
class DistTreeReduce2 {
 public:
  struct Result {
    bool ok = false;          ///< completed and value == expected
    long long value = 0;      ///< distributed result (when bound)
    long long expected = 0;   ///< reduce_sequential oracle
    rt::RunOutcome outcome;   ///< cluster-level classification
  };

  explicit DistTreeReduce2(net::Cluster& cluster)
      : state_(std::make_shared<State>(cluster)) {
    // The handlers share the state, never `this`: ~Cluster abandons their
    // queued tasks, but the motif may go first. Registration order is the
    // wire-level name: tr2.arrive is handler 0.
    auto reg = [&cluster, s = state_](const char* name,
                                      void (State::*h)(const term::Term&)) {
      return cluster.register_handler(
          name, [s, h](const term::Term& t) { ((*s).*h)(t); });
    };
    Wire& w = state_->wire;
    w.h_arrive = reg("tr2.arrive", &State::on_arrive);
    w.h_result = reg("tr2.result", &State::on_result);
    w.h_label = reg("tr2.label", &State::on_label);
  }

  /// Rank 0 only: runs one generation end to end and classifies it.
  Result run(std::uint32_t depth, std::uint64_t seed,
             std::chrono::nanoseconds deadline) {
    return state_->run(depth, seed, deadline);
  }

 private:
  /// How a generation's engine reaches a global node: one Post frame per
  /// message (Cluster::post keeps same-rank ones off the wire).
  struct Wire {
    net::Cluster* cluster = nullptr;
    std::uint16_t h_arrive = 0, h_result = 0, h_label = 0;
    std::uint64_t gen = 0;
    std::uint32_t depth = 0;
    std::uint64_t seed = 0;
    /// Leaf batches delivered, by (sender, destination); the caller is
    /// sender P. Each entry is touched only by its destination's tasks.
    std::vector<std::uint8_t> delivered{};

    std::uint32_t processors() const { return cluster->global_nodes(); }

    /// Posts {gen, depth, seed, tail...} to `n`.
    void send(rt::NodeId n, std::uint16_t h,
              const std::vector<std::int64_t>& tail) const {
      std::vector<term::Term> a{
          term::Term::integer(static_cast<std::int64_t>(gen)),
          term::Term::integer(depth),
          term::Term::integer(static_cast<std::int64_t>(seed))};
      for (std::int64_t x : tail) a.push_back(term::Term::integer(x));
      cluster->post(n, h, term::Term::tuple(std::move(a)));
    }

    template <class St>
    void label(St&, rt::NodeId n) {
      send(n, h_label, {});
    }

    template <class St, class Batch>
    void batch(St&, rt::NodeId from, rt::NodeId n, const Batch& b) {
      std::int64_t sender = from == rt::kNoNode ? processors() : from;
      if (from == detail::kTR2Values) sender = -1;
      std::vector<std::int64_t> tail{sender};
      for (const auto& a : b) {
        tail.insert(tail.end(), {a.id, a.is_right, a.value});
      }
      send(n, h_arrive, tail);
    }

    template <class St>
    void result(St&, long long v) {
      send(0, h_result, {v});
    }
  };

  using Engine = detail::TR2State<long long, char, detail::DistTR2Sum, Wire>;

  /// Depths beyond this are rejected at the wire: a legitimate frame
  /// carries the depth rank 0 ran with, and rebuilding a 2^depth-leaf
  /// tree from an absurd one would make one bad frame an allocation bomb.
  static constexpr std::int64_t kMaxWireDepth = 30;

  struct State {
    explicit State(net::Cluster& cluster) { wire.cluster = &cluster; }

    Result run(std::uint32_t depth, std::uint64_t seed,
               std::chrono::nanoseconds deadline) {
      if (wire.cluster->rank() != 0) {
        throw std::logic_error("DistTreeReduce2::run is rank-0 only");
      }
      Result res;
      if (depth == 0) {  // single leaf: nothing to distribute
        res.value = res.expected = dist_tr2_tree(0, seed)->value();
        res.ok = true;
        return res;
      }
      std::shared_ptr<Engine> e;
      {
        // Under m_: handler tasks replace the engine under the same lock,
        // and a late frame of an abandoned attempt can race a retry.
        std::lock_guard<std::mutex> lk(m_);
        e = build(current_ ? current_->post.gen + 1 : 1, depth, seed);
      }
      res.expected =
          reduce_sequential<long long, char>(e->tree, detail::DistTR2Sum{});
      e->result.set_name("dist_tree_reduce2.result");
      e->start();
      res.outcome = wire.cluster->wait_idle_for(deadline);
      if (!e->result.bound()) {
        // The root value never landed: a frame was lost (Stalled), or a
        // rank was lost or the deadline passed first.
        rt::mark_unfinished(res.outcome, e->result.name());
      }
      if (auto v = e->result.peek()) res.value = *v;
      res.ok = res.outcome.ok() && res.value == res.expected;
      return res;
    }

    /// Makes the engine of `gen` this rank's current one. Caller holds m_.
    std::shared_ptr<Engine> build(std::uint64_t gen, std::uint32_t depth,
                                  std::uint64_t seed) {
      Wire w = wire;
      w.gen = gen;
      w.depth = depth;
      w.seed = seed;
      const std::size_t procs = w.processors();
      w.delivered.assign((procs + 1) * procs, 0);
      current_ = detail::dist_tr2_engine(depth, seed, std::move(w));
      return current_;
    }

    /// True when `t` is a tuple of `arity` integers whose second, the
    /// depth, is in range: the shape every {gen, depth, seed, ...} has.
    static bool well_formed(const term::Term& t, std::size_t arity) {
      if (!t.is_tuple() || t.args().size() != arity || arity < 3) return false;
      for (const auto& a : t.args()) {
        if (!a.is_int()) return false;
      }
      return t.args()[1].int_value() > 0 &&
             t.args()[1].int_value() <= kMaxWireDepth;
    }

    /// The engine of a well-formed frame's generation, built on first
    /// sight; nullptr when the frame is stale, or when its (depth, seed)
    /// disagree with its generation's: then one of the two is corrupt,
    /// and routing by the wrong labels would give a wrong (not just
    /// missing) result. The generation stalls and a retry starts afresh.
    std::shared_ptr<Engine> engine_for(const term::Term& t) {
      const auto& a = t.args();
      const auto gen = static_cast<std::uint64_t>(a[0].int_value());
      const auto depth = static_cast<std::uint32_t>(a[1].int_value());
      const auto seed = static_cast<std::uint64_t>(a[2].int_value());
      std::lock_guard<std::mutex> lk(m_);
      if (current_ == nullptr || gen > current_->post.gen) {
        return build(gen, depth, seed);
      }
      const Wire& w = current_->post;
      if (gen < w.gen) return nullptr;  // late frame of an abandoned attempt
      return w.depth == depth && w.seed == seed ? current_ : drop("tr2");
    }

    static std::nullptr_t drop(const char* what) {
      std::fprintf(stderr, "[net] %s: malformed payload dropped\n", what);
      return nullptr;
    }

    /// The global node running the current handler task.
    rt::NodeId here() const {
      return wire.cluster->rank() * wire.cluster->nodes_per_rank() +
             rt::Machine::current_node();
    }

    void on_label(const term::Term& t) {
      if (!well_formed(t, 3)) return (void)drop("tr2.label");
      // Once per generation: the engine's once-flag.
      if (auto e = engine_for(t)) e->label_on(here());
    }

    /// A duplicated frame is decoded again as a new message, so the
    /// engine's closure guards miss it: a leaf batch is checked off in
    /// `delivered` (a label frame hits the once-flag). Value batches need
    /// no check: under the Paper labels every left child carries its
    /// parent's label, so only right-side values cross processors, and a
    /// repeated one finds its slot waiting on that side, or its node
    /// combined and no left value left to complete it again.
    void on_arrive(const term::Term& t) {
      const std::size_t n = t.is_tuple() ? t.args().size() : 0;
      bool ok = n >= 7 && (n - 4) % 3 == 0 && well_formed(t, n) &&
                t.args()[3].int_value() >= -1 &&
                t.args()[3].int_value() <= wire.processors();
      for (std::size_t i = 4; ok && i < n; i += 3) {
        const std::int64_t id = t.args()[i].int_value();
        const std::int64_t side = t.args()[i + 1].int_value();
        ok = id >= 0 && id < (std::int64_t{1} << t.args()[1].int_value()) - 1 &&
             (side == 0 || side == 1);
      }
      if (!ok) return (void)drop("tr2.arrive");
      auto e = engine_for(t);
      if (e == nullptr) return;
      const auto& a = t.args();
      const rt::NodeId to = here();
      for (std::size_t i = 4; i < n; i += 3) {
        if (e->nodes[static_cast<std::size_t>(a[i].int_value())].label != to) {
          return (void)drop("tr2.arrive");
        }
      }
      const std::int64_t batch = a[3].int_value();
      if (batch >= 0 &&
          std::exchange(e->post.delivered[static_cast<std::size_t>(batch) *
                                              wire.processors() + to], 1)) {
        return;  // a duplicate of a delivered leaf batch
      }
      typename Engine::Batch b;
      b.reserve((n - 4) / 3);
      for (std::size_t i = 4; i < n; i += 3) {
        b.push_back({static_cast<std::uint32_t>(a[i].int_value()),
                     a[i + 1].int_value() == 1, a[i + 2].int_value()});
      }
      e->deliver(b, to);
    }

    void on_result(const term::Term& t) {
      if (!well_formed(t, 4)) return (void)drop("tr2.result");
      const auto gen = static_cast<std::uint64_t>(t.args()[0].int_value());
      std::lock_guard<std::mutex> lk(m_);
      if (current_ != nullptr && current_->post.gen == gen) {
        current_->result.try_bind(t.args()[3].int_value());  // dup-safe
      }
    }

    Wire wire;  // handler ids; each generation's engine gets a copy

    std::mutex m_;
    std::shared_ptr<Engine> current_;  // this rank's newest generation
  };

  std::shared_ptr<State> state_;
};

}  // namespace motif
