// Cluster: one logical machine spanning several processes (DESIGN.md §11).
//
// The global NodeId space [0, ranks * nodes_per_rank) is sharded
// contiguously: rank r owns nodes [r*per, (r+1)*per) and runs a local
// rt::Machine with `per` virtual nodes. A post() to a node this rank owns
// goes straight to the local machine; a post to any other node becomes a
// Post frame through the Transport — which is exactly the paper's
// inter-processor message, now with a measurable wire cost (the frame
// and byte counters of net_stats()).
//
// Handlers: remote code is addressed by a small registry index, not by
// shipping closures. Every rank must register the same handlers in the
// same order before start() — the index is the wire-level name.
//
// Lifecycle (rank 0 drives, followers serve):
//   * start()      — brings the transport up. Every rank registers its
//                    handlers first and dials rank 0 inside its own
//                    start(), so rank 0's start() returns once every rank
//                    is up. Loopback start is a no-op: the receivers are
//                    set at construction, so start order does not matter.
//   * wait_idle_for — rank 0 only: distributed termination detection.
//                    Probe rounds collect (idle, tx, rx) from every rank;
//                    the run is done when all ranks are idle and the
//                    global sent == received frame counts are *stable
//                    across two consecutive rounds* (no message can be in
//                    flight — the classic four-counter argument).
//                    A follower's lost link ends it at once with NodeLost.
//   * serve()      — follower main loop: block until rank 0's Shutdown
//                    arrives or rank 0's link is lost.
//   * shutdown()   — rank 0 broadcasts Shutdown, then stops the transport.
//
// Fault seam: ClusterConfig::net_faults applies the FaultPlan lottery to
// outbound remote posts *before* they reach the transport — a dropped
// frame is never counted as sent, so termination detection stays exact
// under chaos; delayed frames park in a per-rank queue flushed before the
// next probe reply (delay reorders, it cannot wedge).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "runtime/machine.hpp"

namespace motif::net {

/// Node id in the cluster-wide space [0, ranks * nodes_per_rank).
using GlobalNode = std::uint32_t;

/// Remote-invokable entry point. Runs as a task on the destination node's
/// machine (sequential per node, like any other task). The payload is the
/// decoded wire term — fresh cells, nothing shared with the sender.
using Handler = std::function<void(const term::Term&)>;

struct ClusterConfig {
  std::uint32_t nodes_per_rank = 4;
  /// Local machine config; `nodes` is overridden with nodes_per_rank.
  rt::MachineConfig machine{};
  /// Fault lottery applied to outbound remote posts (transport seam).
  rt::FaultPlan net_faults{};
};

class Cluster {
 public:
  /// Sets the transport receiver immediately (so frames sent by peers
  /// that start earlier are never dropped) but does not start it.
  Cluster(Transport& transport, ClusterConfig cfg);

  /// Stops the transport (no Shutdown broadcast — that is shutdown()),
  /// discards any still-queued handler tasks instead of running them
  /// (they reference handlers_ and whatever the handlers capture), and
  /// shuts the local machine down before members destruct.
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::uint32_t rank() const { return transport_.rank(); }
  std::uint32_t ranks() const { return transport_.ranks(); }
  std::uint32_t nodes_per_rank() const { return per_; }
  GlobalNode global_nodes() const { return ranks() * per_; }
  std::uint32_t owner(GlobalNode g) const { return g / per_; }
  rt::NodeId local_of(GlobalNode g) const { return g % per_; }

  rt::Machine& machine() { return *machine_; }
  const rt::Machine& machine() const { return *machine_; }

  /// Registers a remote-invokable handler; returns its wire index. Must
  /// be called before start(), identically on every rank.
  std::uint16_t register_handler(std::string name, Handler h);

  /// Brings the cluster up (see lifecycle note above). Throws if the
  /// transport's bring-up fails or misses its deadline.
  void start();

  /// Runs `handler(payload)` as a task on global node `dst` — locally or
  /// across the wire. Callable from machine tasks and external threads.
  void post(GlobalNode dst, std::uint16_t handler, term::Term payload);

  /// Distributed wait_idle; rank 0 only (std::logic_error elsewhere).
  /// Returns the local machine's classification once the cluster is
  /// globally quiescent, DeadlineExceeded on timeout, or NodeLost as soon
  /// as a follower's link is lost.
  rt::RunOutcome wait_idle_for(std::chrono::nanoseconds deadline);

  /// Follower main loop: blocks until rank 0's Shutdown arrives or rank
  /// 0's link is lost, then stops the transport. Returns at once on rank 0.
  void serve();

  /// Rank 0: broadcast Shutdown, then stop the transport. Followers just
  /// stop the transport. Idempotent.
  void shutdown();

  /// Network counters of the local rank, at one instant. They only grow:
  /// one run's counts are the difference of two snapshots.
  rt::NetStats net_stats() const { return net_; }

 private:
  void on_frame(Frame&& f, std::size_t wire_bytes);
  void deliver_post(Frame&& f);
  /// Ships a data frame (counts tx_frames/tx_bytes), then flushes any
  /// delayed frames parked for that rank behind it.
  void send_data(std::uint32_t to, Frame& f);
  void send_ctl(std::uint32_t to, const Frame& f);
  /// Sends every delayed frame whose destination is `to` (or all ranks
  /// when to == kAllRanks); called before probes so delays cannot wedge
  /// termination detection.
  void flush_delayed(std::uint32_t to);
  bool delayed_empty() const;
  rt::RunOutcome deadline_outcome();

  static constexpr std::uint32_t kAllRanks = static_cast<std::uint32_t>(-1);

  Transport& transport_;
  ClusterConfig cfg_;
  std::uint32_t per_;
  std::vector<std::pair<std::string, Handler>> handlers_;
  /// Written by this class only; the termination detector compares the
  /// ranks' tx_frames and rx_frames sums, so nothing resets them.
  rt::NetStats net_;
  /// Declared after handlers_ and net_ on purpose: queued tasks reference
  /// handlers_ entries and count their posts in net_, so the machine
  /// (destroyed first, in reverse declaration order) must be gone before
  /// either is.
  std::unique_ptr<rt::Machine> machine_;
  bool started_ = false;

  // Fault seam (outbound remote posts).
  std::atomic<std::uint64_t> send_ordinal_{0};
  mutable std::mutex delayed_m_;
  std::vector<std::pair<std::uint32_t, Frame>> delayed_;

  std::atomic<std::uint64_t> trace_seq_{0};

  // Control-plane state, guarded by state_m_.
  mutable std::mutex state_m_;
  std::condition_variable state_cv_;
  bool shutdown_seen_ = false;          // follower: rank 0 said stop or is lost
  bool follower_lost_ = false;          // rank 0: a follower is unreachable
  std::uint64_t reply_round_ = 0;       // rank 0: round being collected
  std::map<std::uint32_t, Frame> replies_;  // rank 0: ProbeReply per rank
  bool shutdown_done_ = false;
};

}  // namespace motif::net
