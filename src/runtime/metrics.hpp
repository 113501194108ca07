// Instrumentation counters and gauges used by the experiment harness.
//
// The experiments in EXPERIMENTS.md are about *shape* — load balance,
// message counts, peak live memory — so the runtime counts, per virtual
// node: tasks executed, local vs remote posts (a post from node a to node
// b != a models an inter-processor message on the simulated multicomputer),
// and exposes a process-wide live-bytes gauge that tracked containers
// report into (used to compare Tree-Reduce-1 vs Tree-Reduce-2 memory).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "runtime/trace.hpp"

namespace motif::rt {

/// A current/peak gauge with relaxed atomics; peak is maintained with a
/// CAS-max loop. add() may be called from any thread.
class Gauge {
 public:
  void add(std::int64_t delta) {
    std::int64_t now = cur_.fetch_add(delta, std::memory_order_relaxed) + delta;
    std::int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }
  std::int64_t current() const { return cur_.load(std::memory_order_relaxed); }
  std::int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  void reset() {
    cur_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> cur_{0};
  std::atomic<std::int64_t> peak_{0};
};

/// Process-wide gauge of "live tracked bytes": the intermediate data
/// structures of node evaluations (alignment profiles, synthetic payloads).
Gauge& live_bytes();

/// Process-wide gauge of concurrently active node evaluations.
Gauge& active_evals();

/// Process-wide count of task exceptions that were dropped because no one
/// was left to observe them — e.g. Machine::shutdown() (or ~Machine)
/// draining a failed run whose error was never collected by wait_idle.
/// Tests read this to assert that a failing task cannot vanish silently.
std::atomic<std::uint64_t>& dropped_task_errors();

/// RAII registration of `bytes` against live_bytes() — attach one to each
/// large intermediate to make peak memory measurable.
class TrackedBytes {
 public:
  TrackedBytes() = default;
  explicit TrackedBytes(std::size_t bytes) : bytes_(bytes) {
    live_bytes().add(static_cast<std::int64_t>(bytes_));
  }
  TrackedBytes(const TrackedBytes& o) : TrackedBytes(o.bytes_) {}
  TrackedBytes(TrackedBytes&& o) noexcept : bytes_(o.bytes_) { o.bytes_ = 0; }
  TrackedBytes& operator=(TrackedBytes o) noexcept {
    std::swap(bytes_, o.bytes_);
    return *this;
  }
  ~TrackedBytes() {
    if (bytes_ != 0) live_bytes().add(-static_cast<std::int64_t>(bytes_));
  }
  std::size_t bytes() const { return bytes_; }

  /// Re-registers with a new size (e.g. after a container grows).
  void resize(std::size_t bytes) {
    live_bytes().add(static_cast<std::int64_t>(bytes) -
                     static_cast<std::int64_t>(bytes_));
    bytes_ = bytes;
  }

 private:
  std::size_t bytes_ = 0;
};

/// Working-set bytes attributed to each node evaluation from initiation
/// to completion (experiment knob; default 0). Models the paper's "each
/// invocation of the node evaluation function can create large
/// intermediate data structures" (Section 3.5): an initiated evaluation
/// owns its intermediates until it finishes.
std::atomic<std::size_t>& eval_working_bytes();

/// RAII marker for one active node evaluation (peak concurrency probe);
/// also charges eval_working_bytes() against live_bytes() for its
/// lifetime.
class EvalScope {
 public:
  EvalScope()
      : bytes_(eval_working_bytes().load(std::memory_order_relaxed)) {
    active_evals().add(1);
    if (bytes_ != 0) live_bytes().add(static_cast<std::int64_t>(bytes_));
    trace_eval_begin();  // timeline view of the concurrency gauge
  }
  ~EvalScope() {
    trace_eval_end();
    active_evals().add(-1);
    if (bytes_ != 0) live_bytes().add(-static_cast<std::int64_t>(bytes_));
  }
  EvalScope(const EvalScope&) = delete;
  EvalScope& operator=(const EvalScope&) = delete;

 private:
  std::size_t bytes_;
};

/// Per-node counters, padded to avoid false sharing between nodes.
struct alignas(64) NodeCounters {
  std::atomic<std::uint64_t> tasks{0};        // tasks executed on this node
  std::atomic<std::uint64_t> posts_local{0};  // posts from this node to itself
  std::atomic<std::uint64_t> posts_remote{0}; // posts from this node elsewhere
  std::atomic<std::uint64_t> recv_remote{0};  // tasks received from elsewhere
  std::atomic<std::uint64_t> work{0};         // virtual cost units executed
  std::atomic<std::uint64_t> hops{0};         // topology hops of sent msgs
};

/// A count any thread may add to (`+=` is a relaxed fetch_add). A copy
/// holds the current value, so a struct of Counters is its own snapshot.
/// Counters only grow: one run's count is the difference of two copies.
class Counter {
 public:
  Counter(std::uint64_t v = 0) noexcept : v_(v) {}
  Counter(const Counter& o) noexcept : v_(o) {}
  Counter& operator=(const Counter& o) noexcept {
    v_.store(o, std::memory_order_relaxed);
    return *this;
  }
  Counter& operator+=(std::uint64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  operator std::uint64_t() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_;
};

/// Injected faults by kind (Machine::load_summary().faults).
struct FaultTotals {
  Counter drops;       ///< posts dropped (probabilistic)
  Counter dead_drops;  ///< posts dropped because the target died
  Counter duplicates;
  Counter delays;
  Counter kills;
  Counter throws;

  std::uint64_t total() const {
    return drops + dead_drops + duplicates + delays + kills + throws;
  }
};

/// Network-layer counters of one cluster rank (net::Cluster::net_stats()):
/// what crossed the process boundary. tx_frames/rx_frames count *data*
/// (Post) frames only — they double as the sent/received totals the
/// distributed termination detector compares, so control traffic
/// (probes, joins) is kept separate in ctl_frames. Bytes count everything
/// on the wire.
struct NetStats {
  Counter tx_frames;   ///< Post frames shipped to other ranks
  Counter rx_frames;   ///< Post frames received from other ranks
  Counter tx_bytes;    ///< wire bytes sent (all frame types)
  Counter rx_bytes;    ///< wire bytes received (all frame types)
  Counter ctl_frames;  ///< non-Post frames sent (handshake/probes)
  Counter drops;       ///< remote posts dropped by the fault seam
  Counter dups;        ///< remote posts duplicated by the seam
  Counter delays;      ///< remote posts delayed by the seam
};

/// Scheduler-substrate counters (Machine::load_summary().sched): how the
/// lock-free core behaved, independent of what the motif computed.
struct SchedStats {
  std::uint64_t steals = 0;  ///< activations taken from another worker
  std::uint64_t parks = 0;   ///< times a worker slept on the eventcount
  /// Posts that found the target node already scheduled: one mailbox
  /// append, zero scheduler interaction — the fast path.
  std::uint64_t mailbox_fast_hits = 0;
  std::uint64_t injects = 0;  ///< activations routed via the global FIFO
};

/// Aggregate view over a machine's node counters.
///
/// `makespan` is the virtual-time completion bound: the maximum over nodes
/// of the cost units they executed. With `total_work / makespan` giving the
/// *virtual speedup*, experiments measure parallel shape honestly even on a
/// host with few physical cores.
struct LoadSummary {
  std::uint64_t total_tasks = 0;
  std::uint64_t max_tasks = 0;
  std::uint64_t min_tasks = 0;
  double mean_tasks = 0.0;
  double imbalance = 0.0;  // max / mean; 1.0 is perfect balance
  std::uint64_t remote_msgs = 0;
  std::uint64_t local_msgs = 0;
  std::uint64_t total_work = 0;
  std::uint64_t total_hops = 0;    // network load under the topology
  double hops_per_remote = 0.0;    // mean message distance
  std::uint64_t makespan = 0;      // max per-node work
  double work_imbalance = 0.0;     // makespan / mean work
  double virtual_speedup = 0.0;    // total_work / makespan
  /// The rest is filled by Machine::load_summary() (zero when
  /// summarize() is called directly: it is not in the node counters).
  SchedStats sched{};
  FaultTotals faults{};
  /// Posts discarded because the machine was shut down or draining in
  /// abandon_pending (dead-node drops are counted in faults instead).
  std::uint64_t discarded_posts = 0;
};

/// Summarises the counters at(0) ... at(n - 1) of n nodes.
LoadSummary summarize(
    std::size_t n, const std::function<const NodeCounters&(std::size_t)>& at);

}  // namespace motif::rt
