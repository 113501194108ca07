// The simulated multicomputer that motifs run on.
//
// A Machine owns N virtual *nodes* — the "processors" of the paper — and W
// OS worker threads that execute them. Each node is a sequential executor:
// its tasks run in FIFO order, one at a time, while distinct nodes run
// concurrently. This is exactly Strand's model (one reduction engine per
// processor, many lightweight processes), and it is what Tree-Reduce-2
// relies on when it requires that "at each processor, computation is
// sequenced so that only a single node evaluation is active at any given
// time" (Section 3.5).
//
// N may exceed W: nodes are virtual processors multiplexed over the worker
// pool, so experiments can sweep |Nodes| on a laptop. A post from node a to
// node b != a is counted as a remote (inter-processor) message.
//
// Scheduling core (DESIGN.md §10): each node's mailbox is a lock-free
// Vyukov MPSC queue, the `merge` of its senders that is a server's input
// (Figure 3); node *activations* (ids of nodes with mail) live in
// per-worker Chase-Lev deques with randomized work stealing plus a small
// mutex-guarded inject queue for external posts, batch re-arms and
// fairness; idle workers spin, yield, then park on an eventcount, and
// while they spin they take spare work from the offer board. The
// observable contract — per-node FIFO, at-most-one-active-task-per-node,
// replayable fault ordinals, pending_/wait_idle/abandon_pending/shutdown
// semantics — is identical to the old mutex + global-ready-deque core.
//
// Tasks must not block on data: they synchronise through SVar / Stream
// continuations, re-posting work when values arrive (CP.4, CP.42).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/metrics.hpp"
#include "runtime/rng.hpp"
#include "runtime/sched_queue.hpp"
#include "runtime/svar.hpp"
#include "runtime/taskfn.hpp"
#include "runtime/trace.hpp"

namespace motif::rt {

using NodeId = std::uint32_t;

/// One-shot continuation with 48 bytes of inline storage (see taskfn.hpp).
/// Move-only: a posted task runs exactly once.
using Task = TaskFn;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Interconnect shape of the simulated multicomputer. The paper's Strand
/// ran "on shared-memory computers, hypercubes, mesh machines, transputer
/// surfaces"; the topology determines how many hops a remote message
/// travels (counted in the per-node metrics — messages are still
/// delivered directly; only the accounting differs).
enum class Topology {
  Complete,   ///< fully connected: every remote message is 1 hop
  Ring,       ///< nodes on a cycle; distance = ring distance
  Mesh2D,     ///< near-square grid; distance = Manhattan
  Hypercube,  ///< distance = Hamming distance of node ids
};

/// Spare work of a running task that idle workers may take from the
/// machine's offer board (Machine::publish; DESIGN.md §10).
class Offer {
 public:
  /// A task that takes some of the spare work.
  virtual Task helper() = 0;
  /// Work a helper would find now, less the helpers taken since; a hint.
  std::atomic<std::ptrdiff_t> spare{0};

 protected:
  ~Offer() = default;
};

struct MachineConfig {
  std::uint32_t nodes = 4;    ///< number of virtual processors
  std::uint32_t workers = 0;  ///< OS threads; 0 = min(nodes, hw concurrency)
  std::uint32_t batch = 64;   ///< max tasks drained from a node per visit
  std::uint64_t seed = 0x5EEDF00Dull;
  Topology topology = Topology::Complete;
  std::size_t trace_capacity = 8192;  ///< trace events retained per node
  FaultPlan faults{};  ///< deterministic fault schedule; default: none
};

class Machine {
 public:
  explicit Machine(MachineConfig cfg = {});

  /// Calls shutdown(): drains outstanding work (logging any uncollected
  /// task error instead of swallowing it), then stops and joins workers.
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  std::uint32_t node_count() const { return static_cast<std::uint32_t>(nodes_.size()); }
  std::uint32_t worker_count() const { return static_cast<std::uint32_t>(workers_.size()); }

  /// Schedules `t` on node `n` (FIFO, sequential per node).
  void post(NodeId n, Task t);

  /// Schedules on the calling task's node; falls back to node 0 when
  /// called from outside the machine.
  void post_local(Task t);

  /// Puts `o` on the offer board, unless it is there, and wakes a parked
  /// worker. An idle worker posts o.helper() to an idle, live node while
  /// o.spare > 0. `o` must stay alive until withdraw(o).
  void publish(Offer& o);

  /// Takes `o` off the offer board; no-op when it is not there.
  void withdraw(Offer& o);

  /// Entries on the offer board right now.
  std::uint32_t offers() const {
    return offers_.load(std::memory_order_relaxed);
  }

  /// Node executing the current task, or kNoNode outside the machine.
  static NodeId current_node();

  /// A uniformly random node id, drawn from the current node's RNG when on
  /// a machine thread (deterministic per node), else from a seeded
  /// external RNG guarded by a mutex.
  NodeId random_node();

  /// A raw 64-bit draw under the same rule as random_node(), so it is safe
  /// on any thread. Motifs seed call-local generators from it instead of
  /// drawing from another node's rng().
  std::uint64_t random_u64();

  /// Per-node deterministic generator. Only the node's own tasks should
  /// draw from it.
  Rng& rng(NodeId n) { return nodes_[n]->rng; }

  /// Blocks until no task is pending or running, then rethrows the first
  /// exception any task threw (if any).
  ///
  /// Concurrency: safe to call from any number of external threads at
  /// once — every caller returns once the machine quiesces, and a stored
  /// task error is delivered to exactly one of them (the others see a
  /// clean return).
  void wait_idle();

  /// Deadline-bounded wait_idle that *classifies* instead of hanging or
  /// rethrowing blindly:
  ///   - Completed:        quiesced with no task error. (A run that
  ///     quiesced because a fault swallowed a message also lands here —
  ///     the machine cannot know a result variable went unbound.
  ///     wait_result_for refines Completed + unbound to Stalled /
  ///     NodeLost.)
  ///   - TaskFailed:       quiesced after a task threw. The error is
  ///     captured in the outcome (and cleared here), not rethrown.
  ///   - DeadlineExceeded: still busy when the deadline expired.
  ///   - NodeLost:         deadline expired with at least one dead node.
  /// The outcome also carries fault totals and dead nodes. It awaits no
  /// variable, so its `blocked_on` is empty; wait_result_for names one.
  RunOutcome wait_idle_for(std::chrono::nanoseconds deadline);

  /// The one blocking result wait. wait_idle() — so a task's error is
  /// rethrown first — then `v`'s value; if the machine went idle with `v`
  /// unbound (a fault ate a message or a node died) it throws
  /// RunIncomplete carrying Stalled, or NodeLost when nodes are dead,
  /// waiting on `v`'s name. Never hangs on a lost value.
  template <class T>
  T wait_result(const SVar<T>& v) {
    wait_idle();
    if (!v.bound()) throw_incomplete(v.name());
    return v.get();
  }

  /// The deadline form: wait_idle_for(deadline), refined by
  /// mark_unfinished when `v` is still unbound — Completed becomes Stalled
  /// (NodeLost when nodes are dead), and an unfinished outcome names `v`
  /// in `blocked_on`.
  template <class T>
  RunOutcome wait_result_for(const SVar<T>& v,
                             std::chrono::nanoseconds deadline) {
    RunOutcome o = wait_idle_for(deadline);
    if (!v.bound()) mark_unfinished(o, v.name());
    return o;
  }

  /// Best-effort cancellation used between supervised retry attempts:
  /// discards every queued task and every post made while draining, then
  /// waits for in-flight tasks to finish and clears any stored task
  /// error. Already-executing tasks run to completion; their onward posts
  /// are discarded (counted in load_summary().discarded_posts).
  void abandon_pending();

  /// Drains outstanding work, then stops and joins the workers.
  /// Idempotent AND thread-safe: guarded by a once_flag, so a concurrent
  /// shutdown() + destructor (or two racing shutdowns) is a single
  /// shutdown, with every caller blocked until it completes. If a task
  /// error was never collected by wait_idle, it is NOT silently
  /// swallowed: it is counted in rt::dropped_task_errors() and reported
  /// on stderr. After shutdown the machine accepts no work — post()
  /// safely discards (counted in load_summary().discarded_posts) instead
  /// of touching stopped workers.
  void shutdown();

  // --- fault injection (see runtime/fault.hpp) ---------------------------

  /// Replaces the fault plan. Call while the machine is idle (between
  /// runs / retry attempts): posts racing a plan swap see either plan.
  /// All killed nodes come back empty — kill specs match an exact
  /// cumulative task count, so a fired kill does not re-fire on the
  /// revived node.
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const { return faults_; }

  /// Brings a killed node back (empty queue, counters intact).
  void revive(NodeId n);

  bool node_alive(NodeId n) const {
    return !nodes_[n]->dead.load(std::memory_order_acquire);
  }

  /// Nodes currently dead, ascending.
  std::vector<NodeId> lost_nodes() const;

  const NodeCounters& counters(NodeId n) const { return nodes_[n]->counters; }

  /// Every counter of this machine at one instant: node load, scheduler
  /// substrate, injected faults, discarded posts. Counters only grow, so
  /// one run's counts are the difference of two snapshots.
  LoadSummary load_summary() const;

  /// Conservative quiescence probe: true when no task is pending or
  /// running *right now*. Unlike wait_idle() this does not block and does
  /// not rethrow — the distributed termination detector polls it and
  /// combines it with message counts to rule out in-flight work.
  bool idle() const {
    return pending_.load(std::memory_order_acquire) == 0;
  }

  /// Records `units` of virtual work against the current node (node 0 when
  /// called externally). Experiments use per-node work totals to compute a
  /// virtual makespan that is independent of host core count.
  void add_work(std::uint64_t units) {
    const NodeId n = current_node() == kNoNode ? 0 : current_node();
    nodes_[n]->counters.work.fetch_add(units, std::memory_order_relaxed);
  }

  Topology topology() const { return topology_; }

  /// True when the runtime was built with MOTIF_TRACING=1; when false the
  /// trace methods below are no-ops and TRACE_SPAN compiles away.
  static constexpr bool trace_compiled = MOTIF_TRACING != 0;

  /// Begins recording trace events (one timeline per virtual node). Call
  /// while the machine is idle; clears any previously recorded events.
  /// No-op when tracing is compiled out or already started.
  void start_trace();

  /// Stops recording; already-recorded events remain until drain_trace().
  void stop_trace();

  /// True while events are being recorded.
  bool tracing() const;

  /// Stops the trace and returns every node's timeline (oldest event
  /// first, plus per-node dropped-event counts). Call while idle. The
  /// machine can be traced again afterwards with start_trace().
  TraceLog drain_trace();

  /// Message distance between two nodes under the configured topology
  /// (0 for a == b; 1 for any remote pair on Complete).
  std::uint32_t hop_distance(NodeId a, NodeId b) const;

 private:
  /// Mailbox entry: intrusive MPSC link + the task, plus fault/trace
  /// metadata. Allocated from per-worker free lists (machine.cpp).
  struct MailNode;
  /// Per-OS-thread scheduling state: Chase-Lev deque, victim RNG,
  /// MailNode free list, substrate counters (machine.cpp).
  struct Worker;

  /// Node activation states. A node is Scheduled from the moment a
  /// producer wins the Idle->Scheduled transition until its drainer's
  /// release protocol observes an empty mailbox — so at most one
  /// activation for a node exists anywhere (deque, inject queue, or
  /// in-drain) at any time, which is what serialises the node.
  static constexpr std::uint8_t kIdle = 0;
  static constexpr std::uint8_t kScheduled = 1;

  struct Node {
    MpscQueue mail;
    std::atomic<std::uint8_t> state{kIdle};
    std::atomic<bool> dead{false};
    Rng rng;
    NodeCounters counters;
    /// Cross-node posts sent by this node, 1-based ordinal feeding the
    /// fault lottery — counted only while a plan is enabled, so the
    /// (seed, sender, ordinal) stream replays exactly. Single-writer
    /// (the node's drainer), hence plain store(load+1) in post().
    std::atomic<std::uint64_t> xposts{0};
    explicit Node(std::uint64_t seed) : rng(seed) {}
  };

  void worker_loop(std::uint32_t index);
  void run_node(NodeId n, Worker* w);
  void idle_wait(Worker& w);
  /// Posts an offered helper to an idle, live node; true if it did.
  bool take_offer(Worker& w);
  bool work_available() const;
  NodeId try_steal(Worker& w);

  /// Routes a fresh activation: the posting worker's own deque (LIFO —
  /// the continuation it just produced) or the inject queue for external
  /// producers; wakes a parked worker if any.
  void activate(Worker* w, NodeId n);
  void inject_push(NodeId n);
  NodeId inject_pop();

  MailNode* alloc_mail(Worker* w);
  void free_mail(Worker* w, MailNode* m);

  /// Shed + release loop for a dead or discarding node (caller holds the
  /// activation): frees every mailbox entry, charging it to dead_drops or
  /// discarded_posts, releases the activation, and re-claims if mail
  /// raced in. On return the node is Idle (or another owner claimed it).
  /// Returns the count shed (caller credits pending_).
  std::uint64_t shed_and_release(Node& node, bool as_dead_drops);

  /// Blocks until pending_ is zero.
  void wait_quiet();
  /// Takes the first stored task error, leaving none.
  std::exception_ptr take_error();
  /// Credits `done` finished or shed tasks to pending_, with w's unspent
  /// credit lease (see post()).
  void settle(Worker* w, std::uint64_t done);
  /// Throws RunIncomplete for an idle machine whose awaited result, the
  /// variable named `awaited`, is unbound.
  [[noreturn]] void throw_incomplete(const char* awaited) const;
  void note_pending_sub(std::uint64_t k);
  void emit_fault(NodeId track, const char* kind, std::uint64_t ordinal,
                  NodeId peer);
  bool kill_due(NodeId n, std::uint64_t task_no) const;
  bool throw_due(NodeId n, std::uint64_t task_no) const;
  void do_shutdown();

  /// The Worker owned by the current thread, when it belongs to *some*
  /// Machine (post() checks it is this one). Lets a worker's own posts
  /// push activations straight onto its deque and recycle MailNodes.
  static thread_local Worker* tl_worker_;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::uint32_t batch_;

  std::vector<std::unique_ptr<Worker>> worker_data_;
  EventCount ec_;
  std::atomic<bool> stopping_{false};

  /// Global FIFO of activations from external producers, batch re-arms
  /// and abandoned drains; workers poll it every kInjectPollTicks
  /// dispatches (and whenever their own deque is empty) so starved nodes
  /// always progress even under deep local LIFO chains.
  static constexpr std::uint64_t kInjectPollTicks = 61;
  mutable std::mutex inject_m_;
  std::deque<NodeId> inject_;
  std::atomic<std::size_t> inject_size_{0};

  std::atomic<std::uint64_t> pending_{0};
  std::mutex idle_m_;
  std::condition_variable idle_cv_;

  std::mutex error_m_;
  std::exception_ptr first_error_;

  // Fault injection. faults_ is written only while the machine is idle
  // (constructor / set_fault_plan); workers read it only after observing
  // faults_enabled_ with acquire, published with release.
  FaultPlan faults_;
  std::atomic<bool> faults_enabled_{false};
  FaultTotals fault_totals_;
  std::atomic<bool> accepting_{true};   // false after shutdown()
  std::atomic<bool> discarding_{false}; // true while abandon_pending drains
  Counter discarded_posts_;
  std::once_flag shutdown_once_;

  std::mutex ext_rng_m_;
  Rng ext_rng_;

  Topology topology_;
  std::uint32_t mesh_cols_ = 1;

  /// Mailbox fast-path hits from external (non-worker) posters.
  Counter ext_fast_hits_;
  Counter injects_;

  // The offer board: offers_ mirrors board_.size() for the idle spin's
  // one relaxed load; board_ allocates on the first publish.
  std::atomic<std::uint32_t> offers_{0};
  std::mutex board_m_;
  std::vector<Offer*> board_;

#if MOTIF_TRACING
  // Created in the constructor (immutable pointer: workers may read it
  // without synchronisation); recording is toggled by start/stop_trace.
  std::unique_ptr<Tracer> tracer_;
#endif

  std::vector<std::thread> workers_;
};

}  // namespace motif::rt
