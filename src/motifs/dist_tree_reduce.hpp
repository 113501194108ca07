// Distributed Tree-Reduce-2: the Section 3.5 motif run across a Cluster,
// where "processor" means a *global* node that may live in another OS
// process — so the paper's guarantee ("at most one inter-processor
// communication per node's pair of offspring values") becomes measurable
// as net_tx frames instead of counted pointer moves (EXPERIMENTS.md).
//
// The run is fully message-driven because follower ranks never call run():
// they sit in Cluster::serve() and everything they need arrives in the
// messages themselves. Each arrive payload carries {gen, depth, seed,
// parent, is_right, value}; a rank that sees a new generation rebuilds the
// tree and the label plan locally from (depth, seed) — the plan is a pure
// function of those, so every rank derives identical labels without any
// plan-distribution protocol.
//
// Retry/chaos safety:
//   * gen — one generation per run() attempt. Stale-generation messages
//     (late deliveries from an abandoned attempt) are ignored; a node
//     seeing a newer generation drops its pending partials first.
//   * duplicates — a duplicated value message re-inserts a half-filled
//     partial *after* the combine consumed it; the orphan partial never
//     completes and is cleared by the next generation. The root result is
//     bound with try_bind, so a duplicated result frame is a no-op.
//   * drops — a lost value leaves the cluster idle with the result
//     unbound; run() refines that to Stalled (same rule as supervise.hpp)
//     so a supervisor can retry with a fresh generation.
//   * malformed frames — handlers validate payload shape (tuple arity,
//     integer tags, parent bounds) and drop anything else, the same way
//     Cluster::deliver_post drops unknown handler indices: a corrupt or
//     version-skewed peer costs a message, never a crash.
//
// Lifetime: the registered handlers capture the motif's state through a
// shared_ptr, never `this` — so a DistTreeReduce2 destroyed while its
// Cluster still holds queued handler tasks (any destruction order at the
// call site) cannot leave dangling references. The Cluster's own
// destructor abandons those queued tasks before its handler registry
// goes away.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
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
    // Handlers share ownership of the state (see lifetime note above).
    auto s = state_;
    state_->h_arrive = cluster.register_handler(
        "tr2.arrive", [s](const term::Term& t) { s->on_arrive(t); });
    state_->h_result = cluster.register_handler(
        "tr2.result", [s](const term::Term& t) { s->on_result(t); });
  }

  /// Rank 0 only: runs one generation end to end and classifies it.
  Result run(std::uint32_t depth, std::uint64_t seed,
             std::chrono::nanoseconds deadline) {
    return state_->run(depth, seed, deadline);
  }

 private:
  using Plan = detail::TR2Plan<long long, char>;

  struct Partial {
    bool have_left = false, have_right = false;
    long long left = 0, right = 0;
  };

  /// Touched only by the owning local node's (sequential) tasks.
  struct NodeState {
    std::uint64_t gen = 0;
    std::unordered_map<std::int64_t, Partial> pending;
  };

  /// Depths beyond this are rejected at the wire: a legitimate arrive
  /// always carries the depth rank 0 ran with, so anything absurd is a
  /// corrupt frame — and rebuilding a 2^depth-leaf plan from it would
  /// turn one bad message into an allocation bomb.
  static constexpr std::uint32_t kMaxWireDepth = 30;

  struct State {
    explicit State(net::Cluster& cluster)
        : cluster_(cluster), node_state_(cluster.machine().node_count()) {}

    Result run(std::uint32_t depth, std::uint64_t seed,
               std::chrono::nanoseconds deadline) {
      if (cluster_.rank() != 0) {
        throw std::logic_error("DistTreeReduce2::run is rank-0 only");
      }
      Result res;
      const auto tree = dist_tr2_tree(depth, seed);
      res.expected = reduce_sequential<long long, char>(
          tree, [](char, long long a, long long b) { return a + b; });
      if (depth == 0) {  // single leaf: nothing to distribute
        res.value = tree->value();
        res.ok = res.value == res.expected;
        return res;
      }

      std::uint64_t gen;
      {
        // Allocate the generation under plan_m_: handler tasks on worker
        // threads read and write last_gen_ under the same lock, and a
        // late frame from an abandoned attempt can race a retry run().
        std::lock_guard<std::mutex> lk(plan_m_);
        gen = ++last_gen_;
      }
      auto plan = ensure_plan(gen, depth, seed);
      rt::SVar<long long> result;
      result.set_name("dist_tree_reduce2.result");
      {
        std::lock_guard<std::mutex> lk(run_m_);
        run_gen_ = gen;
        result_ = result;
      }
      for (const auto& leaf : plan->leaves) {
        cluster_.post(static_cast<net::GlobalNode>(leaf.parent_label),
                      h_arrive,
                      arrive_term(gen, depth, seed, leaf.parent, leaf.is_right,
                                  leaf.value));
      }
      res.outcome = cluster_.wait_idle_for(deadline);
      if (res.outcome.ok() && !result.bound()) {
        // Globally quiet but the root value never landed: a value message
        // was lost. Same refinement supervise.hpp applies to Completed.
        res.outcome.status = rt::RunStatus::Stalled;
        res.outcome.blocked_on = "dist_tree_reduce2.result";
      }
      if (auto v = result.peek()) res.value = *v;
      res.ok = res.outcome.ok() && result.bound() && res.value == res.expected;
      return res;
    }

    static term::Term arrive_term(std::uint64_t gen, std::uint32_t depth,
                                  std::uint64_t seed, std::int64_t parent,
                                  bool is_right, long long value) {
      return term::Term::tuple(
          {term::Term::integer(static_cast<std::int64_t>(gen)),
           term::Term::integer(depth),
           term::Term::integer(static_cast<std::int64_t>(seed)),
           term::Term::integer(parent), term::Term::integer(is_right ? 1 : 0),
           term::Term::integer(value)});
    }

    /// True when `t` is a tuple of exactly `arity` integers — the only
    /// payload shape the handlers accept.
    static bool int_tuple(const term::Term& t, std::size_t arity) {
      if (!t.is_tuple() || t.args().size() != arity) return false;
      for (const auto& a : t.args()) {
        if (!a.is_int()) return false;
      }
      return true;
    }

    static void drop_malformed(const char* what) {
      std::fprintf(stderr, "[net] %s: malformed payload dropped\n", what);
    }

    /// Plan for generation `gen`, rebuilt from (depth, seed) on first
    /// sight. Pure: every rank computes the identical labelling for the
    /// same (depth, seed, global node count). Returns nullptr when a
    /// frame claims an already-built generation with a *different*
    /// (depth, seed) — two frames disagreeing about a generation means
    /// one of them is corrupt, and silently labelling with the wrong
    /// plan would misroute values into a wrong (not just missing)
    /// result. Callers drop such frames; a poisoned generation then
    /// stalls and a supervisor retries with a fresh one.
    std::shared_ptr<const Plan> ensure_plan(std::uint64_t gen,
                                            std::uint32_t depth,
                                            std::uint64_t seed) {
      std::lock_guard<std::mutex> lk(plan_m_);
      if (plan_ == nullptr || plan_gen_ != gen) {
        const auto tree = dist_tr2_tree(depth, seed);
        rt::Rng rng(seed ^ 0xD157ull);
        plan_ = std::make_shared<const Plan>(
            detail::tr2_label<long long, char>(tree, cluster_.global_nodes(),
                                               rng, LabelPolicy::Paper));
        plan_gen_ = gen;
        plan_depth_ = depth;
        plan_seed_ = seed;
        if (gen > last_gen_) last_gen_ = gen;  // followers track rank 0
      } else if (plan_depth_ != depth || plan_seed_ != seed) {
        return nullptr;
      }
      return plan_;
    }

    void on_arrive(const term::Term& t) {
      if (!int_tuple(t, 6)) return drop_malformed("tr2.arrive");
      const auto& a = t.args();
      const auto gen = static_cast<std::uint64_t>(a[0].int_value());
      const auto depth = static_cast<std::uint32_t>(a[1].int_value());
      const auto seed = static_cast<std::uint64_t>(a[2].int_value());
      const std::int64_t parent = a[3].int_value();
      const bool is_right = a[4].int_value() != 0;
      long long value = a[5].int_value();
      if (a[1].int_value() <= 0 || depth > kMaxWireDepth) {
        return drop_malformed("tr2.arrive");
      }

      auto plan = ensure_plan(gen, depth, seed);
      if (plan == nullptr || parent < 0 ||
          static_cast<std::size_t>(parent) >= plan->nodes.size()) {
        return drop_malformed("tr2.arrive");
      }
      const rt::NodeId here = rt::Machine::current_node();
      NodeState& ns = node_state_[here];
      if (gen < ns.gen) return;  // late message from an abandoned attempt
      if (gen > ns.gen) {
        ns.gen = gen;
        ns.pending.clear();
      }

      Partial& p = ns.pending[parent];
      (is_right ? p.right : p.left) = value;
      (is_right ? p.have_right : p.have_left) = true;
      if (!(p.have_left && p.have_right)) return;
      const Partial ready = p;
      ns.pending.erase(parent);
      const auto& e = plan->nodes[static_cast<std::size_t>(parent)];
      long long combined;
      {
        rt::EvalScope scope;  // one evaluation active per processor (§3.5)
        TRACE_SPAN("dist_tree_reduce2.combine");
        combined = ready.left + ready.right;
      }
      if (e.parent == detail::kTR2Root) {
        cluster_.post(0, h_result,
                      term::Term::tuple(
                          {term::Term::integer(static_cast<std::int64_t>(gen)),
                           term::Term::integer(combined)}));
        return;
      }
      // Onward to the parent's processor. cluster_.post keeps same-rank
      // hops off the wire, so net_tx counts exactly the inter-processor
      // value messages the paper's Section 3.5 bound is about.
      cluster_.post(static_cast<net::GlobalNode>(e.parent_label), h_arrive,
                    arrive_term(gen, depth, seed, e.parent, e.is_right,
                                combined));
    }

    void on_result(const term::Term& t) {
      if (!int_tuple(t, 2)) return drop_malformed("tr2.result");
      const auto& a = t.args();
      const auto gen = static_cast<std::uint64_t>(a[0].int_value());
      const long long value = a[1].int_value();
      std::lock_guard<std::mutex> lk(run_m_);
      if (gen == run_gen_ && result_.has_value()) {
        result_->try_bind(value);  // duplicate-safe
      }
    }

    net::Cluster& cluster_;
    std::uint16_t h_arrive = 0;
    std::uint16_t h_result = 0;

    std::mutex plan_m_;
    std::shared_ptr<const Plan> plan_;
    std::uint64_t plan_gen_ = 0;
    std::uint32_t plan_depth_ = 0;
    std::uint64_t plan_seed_ = 0;
    std::uint64_t last_gen_ = 0;  // guarded by plan_m_

    std::mutex run_m_;
    std::uint64_t run_gen_ = 0;
    std::optional<rt::SVar<long long>> result_;

    std::vector<NodeState> node_state_;
  };

  std::shared_ptr<State> state_;
};

}  // namespace motif
