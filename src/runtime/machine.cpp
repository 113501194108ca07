#include "runtime/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

namespace motif::rt {

namespace {
thread_local NodeId tl_current_node = kNoNode;

/// The message of a task error, for reports.
std::string error_text(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}
}  // namespace

/// Mailbox entry: intrusive link first (so a link pointer converts back to
/// its MailNode), then the task and its fault/trace metadata. Entries are
/// recycled through per-worker free lists — in steady state a post on the
/// hot path allocates nothing.
struct Machine::MailNode {
  MpscLink link;
  TaskFn fn;
  std::uint32_t delay = 0;  // fault-injected bounces left before running
  /// Sender node. Lets the drainer do the receive-side accounting
  /// (single-writer store) instead of a multi-producer RMW at post time.
  NodeId from = kNoNode;
#if MOTIF_TRACING
  std::uint64_t trace_msg = 0;  // nonzero: traced remote message id
  std::uint32_t hops = 0;
#endif
  MailNode* free_next = nullptr;

  static MailNode* from_link(MpscLink* lk) {
    // `link` is the first member, so the addresses coincide.
    return reinterpret_cast<MailNode*>(lk);
  }
};

struct Machine::Worker {
  /// Free-list bound: big enough to absorb a full batch of productions,
  /// small enough that an idle machine is not sitting on memory.
  static constexpr std::uint32_t kMaxFree = 256;
  /// Pending-credit lease block (see post()): credits bought from
  /// pending_ in bulk, spent locally one post at a time.
  static constexpr std::uint32_t kPendingLease = 64;

  Machine* machine;
  std::uint32_t index;
  WorkDeque deque;
  Rng rng;  // victim selection for stealing; determinism not required
  MailNode* free_head = nullptr;
  std::uint32_t free_count = 0;
  /// Unspent pre-paid pending_ credits. Nonzero only inside run_node();
  /// every drain-exit path returns the remainder, so an idle worker never
  /// holds pending_ above zero.
  std::uint32_t pending_lease = 0;
  /// Direct-handoff slot: the node this worker will run next, bypassing
  /// the deque (saves two locked RMWs and a wake per activation on serial
  /// continuation chains). Owner-only; invisible to thieves and
  /// work_available(). That is safe because the owner consumes the slot
  /// on its very next loop iteration — it can never park over it — and
  /// an occupied slot keeps pending_ nonzero, so shutdown()'s quiescence
  /// wait cannot pass it by either.
  std::uint32_t handoff = WorkDeque::kNone;
  /// Consecutive handoff activations; bounded by kHandoffCap so a hot
  /// chain periodically yields to deque/global work.
  std::uint32_t handoff_streak = 0;
  static constexpr std::uint32_t kHandoffCap = 16;

  // Substrate counters: relaxed atomics so load_summary() can snapshot
  // them while the machine runs.
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> parks{0};
  std::atomic<std::uint64_t> fast_hits{0};

  Worker(Machine* m, std::uint32_t i, std::uint64_t seed)
      : machine(m), index(i), rng(seed) {}
  ~Worker() {
    MailNode* p = free_head;
    while (p != nullptr) {
      MailNode* nx = p->free_next;
      delete p;
      p = nx;
    }
  }
};

thread_local Machine::Worker* Machine::tl_worker_ = nullptr;

Machine::Machine(MachineConfig cfg)
    : batch_(std::max<std::uint32_t>(1, cfg.batch)),
      ext_rng_(cfg.seed ^ 0xE27ull),
      topology_(cfg.topology) {
  const std::uint32_t n = std::max<std::uint32_t>(1, cfg.nodes);
  // Mesh: the most-square factorisation r x c with r*c >= n.
  mesh_cols_ = 1;
  while (mesh_cols_ * mesh_cols_ < n) ++mesh_cols_;
  nodes_.reserve(n);
  std::uint64_t s = cfg.seed;
  for (std::uint32_t i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<Node>(splitmix64(s)));
  }
  faults_ = cfg.faults;
  faults_enabled_.store(faults_.enabled(), std::memory_order_release);
  std::uint32_t w = cfg.workers;
  if (w == 0) {
    const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
    w = std::min(n, hw);
  }
#if MOTIF_TRACING
  tracer_ = std::make_unique<Tracer>(
      TracerOptions{std::max<std::size_t>(2, cfg.trace_capacity)});
  for (std::uint32_t i = 0; i < n; ++i) {
    tracer_->add_track("node " + std::to_string(i));
  }
#endif
  worker_data_.reserve(w);
  for (std::uint32_t i = 0; i < w; ++i) {
    worker_data_.push_back(std::make_unique<Worker>(this, i, splitmix64(s)));
  }
  workers_.reserve(w);
  for (std::uint32_t i = 0; i < w; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Machine::~Machine() { shutdown(); }

void Machine::shutdown() {
  // once_flag: a concurrent shutdown() + destructor (or two racing
  // shutdowns) performs the sequence exactly once, and every caller
  // blocks until it has completed.
  std::call_once(shutdown_once_, [this] { do_shutdown(); });
}

void Machine::do_shutdown() {
  // Drain outstanding work first so no posted task is silently dropped.
  wait_quiet();
  // A task error no wait_idle ever collected must not vanish: count it
  // and say so, since nobody is left to rethrow it to.
  if (const std::exception_ptr e = take_error()) {
    dropped_task_errors().fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "[motif] task error dropped at Machine shutdown: %s\n",
                 error_text(e).c_str());
  }
  accepting_.store(false, std::memory_order_release);
  stopping_.store(true, std::memory_order_seq_cst);
  ec_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
}

NodeId Machine::current_node() { return tl_current_node; }

void Machine::start_trace() {
#if MOTIF_TRACING
  if (!tracer_->active()) tracer_->start();
#endif
}

void Machine::stop_trace() {
#if MOTIF_TRACING
  tracer_->stop();
#endif
}

bool Machine::tracing() const {
#if MOTIF_TRACING
  return tracer_->active();
#else
  return false;
#endif
}

TraceLog Machine::drain_trace() {
#if MOTIF_TRACING
  return tracer_->drain();
#else
  return {};
#endif
}

void Machine::post(NodeId n, Task t) {
  if (!accepting_.load(std::memory_order_acquire) ||
      discarding_.load(std::memory_order_acquire)) {
    // After shutdown() (or while abandon_pending drains) posting is safe
    // but inert: the task is discarded and counted, never enqueued onto
    // stopped workers.
    discarded_posts_ += 1;
    return;
  }
  // A worker of another Machine (loopback clusters deliver on the
  // sender's thread) runs none of our nodes: it posts as an external.
  Worker* w = tl_worker_;
  if (w != nullptr && w->machine != this) w = nullptr;
  const NodeId from = w != nullptr ? tl_current_node : kNoNode;
  Node& dst = *nodes_[n];
  if (dst.dead.load(std::memory_order_acquire)) {
    // A crashed processor loses its mail silently — the defining hazard
    // the supervision layer exists to classify.
    fault_totals_.dead_drops += 1;
    if (from != kNoNode) emit_fault(from, "dead-drop", 0, n);
    return;
  }
  // The fault lottery applies to cross-node posts only; the ordinal is a
  // per-sender count so the (seed, sender, ordinal) stream is replayable.
  PostFault pf = PostFault::None;
  std::uint64_t ordinal = 0;
  if (from != kNoNode && from != n &&
      faults_enabled_.load(std::memory_order_acquire)) {
    // Sender-side state is single-writer — only node `from`'s drainer
    // executes this, and activation handoff orders successive drainers —
    // so a plain load+store avoids the locked RMW.
    Node& src = *nodes_[from];
    ordinal = src.xposts.load(std::memory_order_relaxed) + 1;
    src.xposts.store(ordinal, std::memory_order_relaxed);
    pf = faults_.post_fault(from, ordinal);
  }
  if (pf == PostFault::Drop) {
    fault_totals_.drops += 1;
    emit_fault(from, "drop", ordinal, n);
    return;
  }
  std::uint32_t delay = 0;
  if (pf == PostFault::Delay) {
    delay = 1;  // one bounce: re-queued behind later arrivals
    fault_totals_.delays += 1;
    emit_fault(from, "delay", ordinal, n);
  }
#if MOTIF_TRACING
  std::uint64_t trace_msg = 0;
  std::uint32_t msg_hops = 0;
#endif
  if (from == kNoNode) {
    // external producer; not an inter-processor message
  } else if (from == n) {
    Node& src = *nodes_[from];  // single-writer, see above
    src.counters.posts_local.store(
        src.counters.posts_local.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  } else {
    const std::uint32_t hops = hop_distance(from, n);
    Node& src = *nodes_[from];  // single-writer, see above
    src.counters.posts_remote.store(
        src.counters.posts_remote.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    src.counters.hops.store(
        src.counters.hops.load(std::memory_order_relaxed) + hops,
        std::memory_order_relaxed);
    // recv_remote is counted by the receiving drainer (single-writer),
    // not here — the receive side has many concurrent posters.
#if MOTIF_TRACING
    if (tracer_->active()) {
      // The calling thread is running node `from`, i.e. it is that
      // track's (single) writer right now.
      trace_msg = tracer_->next_msg_id();
      msg_hops = hops;
      tracer_->emit(from, TraceEventKind::MsgSend, nullptr, trace_msg, n,
                    hops);
    }
#endif
  }
  const bool dup = pf == PostFault::Duplicate;
  if (dup) {
    fault_totals_.duplicates += 1;
    emit_fault(from, "dup", ordinal, n);
  }
  // The pending credit must be GLOBAL before the push: the instant the
  // entry is visible another worker can run it and apply its drop in that
  // worker's drain-exit flush — a credit still sitting in a producer-side
  // buffer would let pending_ touch zero mid-computation. (Drops are the
  // safe side to defer; credits are not.) Workers therefore PRE-PAY a
  // lease of kPendingLease credits in one RMW and spend it locally:
  // pending_ transiently over-states outstanding work — harmless, idle
  // waiters can only wake late — and the drain-exit flush returns the
  // unspent remainder.
  const std::uint32_t need = dup ? 2u : 1u;
  if (w != nullptr) {
    if (w->pending_lease < need) {
      pending_.fetch_add(Worker::kPendingLease, std::memory_order_relaxed);
      w->pending_lease += Worker::kPendingLease;
    }
    w->pending_lease -= need;
  } else {
    pending_.fetch_add(need, std::memory_order_relaxed);
  }
  const auto fill = [&](MailNode* m, TaskFn f) {
    m->fn = std::move(f);
    m->delay = delay;
    m->from = from;
#if MOTIF_TRACING
    m->trace_msg = trace_msg;
    m->hops = msg_hops;
#endif
  };
  if (dup) {
    // TaskFn is move-only (tasks run exactly once); the two deliveries of
    // a duplicated message share the callable instead of copying it.
    auto shared = std::make_shared<TaskFn>(std::move(t));
    MailNode* m1 = alloc_mail(w);
    fill(m1, TaskFn([shared] { (*shared)(); }));
    MailNode* m2 = alloc_mail(w);
    fill(m2, TaskFn([shared] { (*shared)(); }));
    dst.mail.push(&m1->link);
    dst.mail.push(&m2->link);
  } else {
    MailNode* m1 = alloc_mail(w);
    fill(m1, std::move(t));
    dst.mail.push(&m1->link);
  }
  // Activation. Fast path first: a seq_cst LOAD that sees kScheduled is
  // proof enough — the push above is itself a seq_cst RMW, so in the
  // single total order it precedes this load, which precedes the
  // drainer's Idle store, which precedes the drainer's mailbox re-probe:
  // the release protocol is guaranteed to see our entry and re-arm. (A
  // *relaxed* load here would NOT be: without the RMW-load/store-load
  // ordering the classic store-buffering interleaving loses the wakeup.)
  // On x86 the load is a plain MOV, so the already-scheduled case — the
  // common one under load — costs no locked instruction at all.
  // Slow path: the node looked idle; the seq_cst exchange decides the
  // race against the release protocol (and other producers) — exactly
  // one side schedules the node, at most one activation in flight.
  if (dst.state.load(std::memory_order_seq_cst) != kScheduled &&
      dst.state.exchange(kScheduled, std::memory_order_seq_cst) == kIdle) {
    activate(w, n);
  } else if (w != nullptr) {
    // Single-writer (this worker's own counter): no RMW on the fast path.
    w->fast_hits.store(w->fast_hits.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  } else {
    ext_fast_hits_ += 1;
  }
}

void Machine::post_local(Task t) {
  const NodeId n = tl_current_node == kNoNode ? 0 : tl_current_node;
  post(n, std::move(t));
}

NodeId Machine::random_node() {
  const NodeId cur = tl_current_node;
  if (cur != kNoNode) {
    return static_cast<NodeId>(nodes_[cur]->rng.below(nodes_.size()));
  }
  std::lock_guard lock(ext_rng_m_);
  return static_cast<NodeId>(ext_rng_.below(nodes_.size()));
}

std::uint64_t Machine::random_u64() {
  const NodeId cur = tl_current_node;
  if (cur != kNoNode) return nodes_[cur]->rng.next();
  std::lock_guard lock(ext_rng_m_);
  return ext_rng_.next();
}

Machine::MailNode* Machine::alloc_mail(Worker* w) {
  if (w != nullptr && w->free_head != nullptr) {
    MailNode* m = w->free_head;
    w->free_head = m->free_next;
    --w->free_count;
    return m;
  }
  return new MailNode;
}

void Machine::free_mail(Worker* w, MailNode* m) {
  m->fn.reset();
  if (w != nullptr && w->free_count < Worker::kMaxFree) {
    m->free_next = w->free_head;
    w->free_head = m;
    ++w->free_count;
    return;
  }
  delete m;
}

void Machine::activate(Worker* w, NodeId n) {
  if (w != nullptr) {
    if (w->handoff == kNoNode) {
      // Direct handoff: the continuation this worker just produced is
      // the hottest work in its cache and the worker is guaranteed to
      // look for work again momentarily — run it next without touching
      // the deque. A serial chain (each task posts exactly one
      // successor) cannot be parallelised anyway; when our deque ALSO
      // holds stealable surplus, still ping a thief so that surplus
      // gets picked up promptly.
      w->handoff = n;
      if (w->deque.maybe_nonempty()) ec_.notify_if_waiting();
      return;
    }
    // Slot taken (fan-out > 1): LIFO push — the newest continuation is
    // hottest; thieves take the other (FIFO) end.
    w->deque.push(n);
    ec_.notify_if_waiting();
  } else {
    inject_push(n);
    ec_.notify_if_waiting();
  }
}

void Machine::publish(Offer& o) {
  {
    std::lock_guard lock(board_m_);
    if (std::find(board_.begin(), board_.end(), &o) == board_.end()) {
      board_.push_back(&o);
      offers_.store(static_cast<std::uint32_t>(board_.size()),
                    std::memory_order_relaxed);
    }
  }
  ec_.notify_if_waiting();
}

void Machine::withdraw(Offer& o) {
  std::lock_guard lock(board_m_);
  const auto it = std::find(board_.begin(), board_.end(), &o);
  if (it == board_.end()) return;
  board_.erase(it);
  offers_.store(static_cast<std::uint32_t>(board_.size()),
                std::memory_order_relaxed);
}

bool Machine::take_offer(Worker& w) {
  // The helper becomes an idle node's task, so each node still runs one
  // thing at a time.
  const auto n = static_cast<NodeId>(nodes_.size());
  NodeId dst = kNoNode;
  for (NodeId i = 0; i < n && dst == kNoNode; ++i) {
    const NodeId k = (w.index + i) % n;
    if (nodes_[k]->state.load(std::memory_order_relaxed) == kIdle &&
        node_alive(k)) {
      dst = k;
    }
  }
  std::lock_guard lock(board_m_);
  const auto it = std::find_if(board_.begin(), board_.end(), [](Offer* o) {
    return o->spare.load(std::memory_order_relaxed) > 0;
  });
  if (dst == kNoNode || it == board_.end()) return false;
  // Outside a drain the post has no sending node, so the fault lottery
  // never reaches it; it lands in w's handoff slot when it wins dst's
  // activation. An idle worker holds no credit lease, so the one this
  // post bought goes back at once.
  post(dst, (*it)->helper());
  settle(&w, 0);
  // A taker that leaves spare work behind wakes the next idle worker.
  if ((*it)->spare.fetch_sub(1, std::memory_order_relaxed) > 1) {
    ec_.notify_if_waiting();
  }
  return true;
}

void Machine::inject_push(NodeId n) {
  std::lock_guard lock(inject_m_);
  inject_.push_back(n);
  inject_size_.fetch_add(1, std::memory_order_seq_cst);
  injects_ += 1;
}

NodeId Machine::inject_pop() {
  if (inject_size_.load(std::memory_order_relaxed) == 0) return kNoNode;
  std::lock_guard lock(inject_m_);
  if (inject_.empty()) return kNoNode;
  const NodeId n = inject_.front();
  inject_.pop_front();
  inject_size_.fetch_sub(1, std::memory_order_relaxed);
  return n;
}

NodeId Machine::try_steal(Worker& w) {
  const auto nw = static_cast<std::uint32_t>(worker_data_.size());
  if (nw <= 1) return kNoNode;
  for (std::uint32_t round = 0; round < 2; ++round) {
    const auto start = static_cast<std::uint32_t>(w.rng.below(nw));
    for (std::uint32_t i = 0; i < nw; ++i) {
      const std::uint32_t victim = (start + i) % nw;
      if (victim == w.index) continue;
      const std::uint32_t got = worker_data_[victim]->deque.steal();
      if (got != WorkDeque::kNone) {
        // Single-writer: only this worker's thread writes its counter.
        w.steals.store(w.steals.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
        return got;
      }
    }
  }
  return kNoNode;
}

bool Machine::work_available() const {
  if (inject_size_.load(std::memory_order_seq_cst) != 0) return true;
  for (const auto& wd : worker_data_) {
    if (wd->deque.maybe_nonempty()) return true;
  }
  return false;
}

void Machine::idle_wait(Worker& w) {
  // Adaptive idling: spin briefly (arrivals are usually imminent under
  // load), yield the core every few rounds, then park on the eventcount.
  // A spinning worker also takes spare work from the offer board.
  for (int spin = 0; spin < 64; ++spin) {
    if (stopping_.load(std::memory_order_acquire) || work_available() ||
        (offers_.load(std::memory_order_relaxed) != 0 && take_offer(w))) {
      return;
    }
    if ((spin & 7) == 7) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  const std::uint64_t key = ec_.prepare_wait();
  if (stopping_.load(std::memory_order_acquire) || work_available()) {
    ec_.cancel_wait();
    return;
  }
  w.parks.store(w.parks.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  ec_.commit_wait(key);
}

void Machine::worker_loop(std::uint32_t index) {
  Worker& w = *worker_data_[index];
  tl_worker_ = &w;
  std::uint64_t tick = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    NodeId n = kNoNode;
    // Fairness valve: periodically service the global FIFO and then the
    // *oldest* entry of our own deque (self-steal from the thief end),
    // even while the local LIFO chain is hot. Without this, a hot
    // post-run-post cycle between two nodes can starve sibling
    // activations sitting under it for the whole run — stealing alone
    // does not bound that on an oversubscribed host. `tick` counts the
    // turns that ran a node, so idle turns do not move the schedule.
    if (tick % kInjectPollTicks == kInjectPollTicks - 1) {
      n = inject_pop();
      if (n == kNoNode) n = w.deque.steal();
    }
    if (n == kNoNode && w.handoff != kNoNode) {
      if (++w.handoff_streak <= Worker::kHandoffCap) {
        n = w.handoff;
        w.handoff = kNoNode;
      } else {
        // Streak cap: demote the chain into the deque and take the fair
        // path below, giving deque/global work a turn and thieves a
        // window.
        w.handoff_streak = 0;
        w.deque.push(w.handoff);
        w.handoff = kNoNode;
        ec_.notify_if_waiting();
      }
    }
    if (n == kNoNode) {
      w.handoff_streak = 0;
      n = w.deque.pop();
    }
    if (n == kNoNode) n = inject_pop();
    if (n == kNoNode) n = try_steal(w);
    if (n == kNoNode) {
      idle_wait(w);
    } else {
      run_node(n, &w);
      ++tick;
    }
  }
  // Unreachable in a correct run (see the handoff field comment), but if
  // the invariant were ever broken, surfacing the activation beats
  // stranding its mail.
  if (w.handoff != kNoNode) {
    inject_push(w.handoff);
    w.handoff = kNoNode;
  }
  tl_worker_ = nullptr;
}

void Machine::run_node(NodeId n, Worker* w) {
  Node& node = *nodes_[n];
  // We hold the node's (single) activation: state stays kScheduled until
  // the release protocol below observes an empty mailbox.
  if (node.dead.load(std::memory_order_acquire)) {
    // Mail that raced past the dead-check in post(): shed it here so
    // pending_ still drains and the machine quiesces instead of hanging.
    settle(w, shed_and_release(node, /*as_dead_drops=*/true));
    return;
  }
  if (discarding_.load(std::memory_order_acquire)) {
    settle(w, shed_and_release(node, /*as_dead_drops=*/false));
    return;
  }
  tl_current_node = n;
#if MOTIF_TRACING
  // Bind this thread to the node's trace track so EvalScope and
  // TRACE_SPAN emissions inside tasks land on the right timeline. The
  // activation handoff serialises successive writers of one track.
  ThreadTrackGuard trace_guard(tracer_.get(), n);
#endif
  std::uint32_t executed = 0;
  std::uint64_t completed = 0;  // executed tasks; pending_ is credited once
  // Drain-local counter accumulators. They MUST be flushed before the
  // release protocol publishes Idle: the moment another worker can win
  // the activation it may start a drain and read counters.tasks — a
  // flush after that point would be a lost update (and would corrupt
  // the fault lottery's task ordinals). The exit flush below only
  // covers break paths that do not publish Idle themselves.
  std::uint64_t task_base =
      node.counters.tasks.load(std::memory_order_relaxed);
  std::uint64_t tasks_run = 0;
  std::uint64_t recv_rem = 0;
  const auto flush_counters = [&] {
    if (tasks_run != 0) {
      task_base += tasks_run;
      tasks_run = 0;
      node.counters.tasks.store(task_base, std::memory_order_relaxed);
    }
    if (recv_rem != 0) {
      node.counters.recv_remote.store(
          node.counters.recv_remote.load(std::memory_order_relaxed) +
              recv_rem,
          std::memory_order_relaxed);
      recv_rem = 0;
    }
  };
  bool died = false;
  for (;;) {
    MpscLink* lk = nullptr;
    if (!node.mail.pop(&lk)) {
      // Release protocol: publish Idle, then re-probe the mailbox. A
      // producer that pushed before seeing Idle is caught by the probe
      // (seq_cst pairing in sched_queue.hpp); one that saw Idle
      // schedules the activation itself. The CAS decides the race when
      // both notice. NOTE: this is the only place maybe_nonempty() may
      // be consulted — after an empty verdict it cannot false-negative.
      // (exchange, not store: a seq_cst RMW is one locked instruction on
      // x86 where a seq_cst store costs a trailing full fence.)
      flush_counters();
      node.state.exchange(kIdle, std::memory_order_seq_cst);
      if (node.mail.maybe_nonempty()) {
        std::uint8_t expected = kIdle;
        if (node.state.compare_exchange_strong(expected, kScheduled,
                                               std::memory_order_seq_cst)) {
          // Mail raced our empty verdict and we won the activation back:
          // keep draining in place rather than round-tripping the
          // activation through the deque (two seq_cst fences). `executed`
          // keeps counting, so the batch_ fairness bound still holds.
          continue;
        }
      }
      break;
    }
    MailNode* m = MailNode::from_link(lk);
    if (m->delay > 0) {
      // Fault-injected delay: bounce the task to the back of the queue
      // so anything that arrived since overtakes it. No counters — the
      // task has not run.
      --m->delay;
      node.mail.push(&m->link);
      ++executed;
      if (executed >= batch_) {
        flush_counters();  // see below: inject_push hands off the drain
        inject_push(n);
        ec_.notify_if_waiting();
        break;
      }
      continue;
    }
    TaskFn fn = std::move(m->fn);
    const NodeId msg_from = m->from;
#if MOTIF_TRACING
    const std::uint64_t msg = m->trace_msg;
    const std::uint32_t msg_hops = m->hops;
#endif
    // Recycle the entry before running the task: the task's own posts
    // (the common continuation pattern) reuse it while it is cache-hot.
    free_mail(w, m);
    ++executed;
    // Single-writer counters (we hold the activation): accumulated in
    // locals and stored once at drain exit. task_no stays exact — it is
    // the fault lottery's replay ordinal.
    const std::uint64_t task_no = task_base + ++tasks_run;
    if (msg_from != kNoNode && msg_from != n) ++recv_rem;
#if MOTIF_TRACING
    const bool traced = tracer_->active();
    std::uint64_t work_before = 0;
    if (traced) {
      tracer_->emit(n, TraceEventKind::TaskBegin);
      if (msg != 0) {
        tracer_->emit(n, TraceEventKind::MsgRecv, nullptr, msg, msg_from,
                      msg_hops);
      }
      work_before = node.counters.work.load(std::memory_order_relaxed);
    }
#endif
    const bool faults_on = faults_enabled_.load(std::memory_order_acquire);
    try {
      if (faults_on && throw_due(n, task_no)) {
        fault_totals_.throws += 1;
        emit_fault(n, "throw", task_no, n);
        // The task body never runs: the "process" died before producing
        // its outputs.
        throw InjectedFault("injected fault: node " + std::to_string(n) +
                            " task " + std::to_string(task_no));
      }
      fn();
    } catch (...) {
      std::lock_guard lock(error_m_);
      if (!first_error_) first_error_ = std::current_exception();
    }
#if MOTIF_TRACING
    if (traced) {
      const std::uint64_t work_after =
          node.counters.work.load(std::memory_order_relaxed);
      tracer_->emit(n, TraceEventKind::TaskEnd, nullptr,
                    work_after - work_before);
    }
#endif
    if (faults_on && kill_due(n, task_no)) {
      node.dead.store(true, std::memory_order_release);
      fault_totals_.kills += 1;
      emit_fault(n, "kill", task_no, n);
      died = true;
    }
    ++completed;
    if (died) {
      // The dead node's remaining mail is lost with it.
      completed += shed_and_release(node, /*as_dead_drops=*/true);
      break;
    }
    if (discarding_.load(std::memory_order_acquire)) {
      completed += shed_and_release(node, /*as_dead_drops=*/false);
      break;
    }
    if (executed >= batch_) {
      // Batch exhausted: keep the activation (state stays Scheduled) but
      // route it through the global FIFO so other ready nodes get a turn
      // — re-pushing onto our own LIFO deque would starve them. Flush
      // first: the moment the id is in the inject queue another worker
      // may pop it and begin a drain that reads counters.tasks.
      flush_counters();
      inject_push(n);
      ec_.notify_if_waiting();
      break;
    }
  }
  // Covers the died/discarding breaks (no-op on the other paths, which
  // flushed before handing off). Safe even though shed_and_release has
  // published Idle: dead/discarding re-activations return before ever
  // touching these counters.
  flush_counters();
  // One pending_ decrement per drain instead of one per task. Deferring
  // the SUBTRACT side is always safe: until the flush, pending_ merely
  // over-states the outstanding work, so idle-waiters can only wake late,
  // never early.
  settle(w, completed);
  tl_current_node = kNoNode;
}

void Machine::settle(Worker* w, std::uint64_t done) {
  if (w != nullptr) {
    done += w->pending_lease;
    w->pending_lease = 0;
  }
  note_pending_sub(done);
}

std::uint64_t Machine::shed_and_release(Node& node, bool as_dead_drops) {
  // Re-claiming matters: mail that raced in behind the shed would strand
  // otherwise (its producer saw Scheduled and did not activate). The
  // CALLER settles the pending_ accounting (workers fold it into their
  // drain-exit batch decrement).
  Worker* w = tl_worker_;
  if (w != nullptr && w->machine != this) w = nullptr;
  std::uint64_t shed = 0;
  for (;;) {
    MpscLink* lk = nullptr;
    while (node.mail.pop(&lk)) {
      free_mail(w, MailNode::from_link(lk));
      ++shed;
    }
    node.state.store(kIdle, std::memory_order_seq_cst);
    std::uint8_t expected = kIdle;
    if (!node.mail.maybe_nonempty() ||
        !node.state.compare_exchange_strong(expected, kScheduled,
                                            std::memory_order_seq_cst)) {
      break;  // empty, or a producer claimed it and the next drainer sheds
    }
  }
  if (shed != 0) {
    (as_dead_drops ? fault_totals_.dead_drops : discarded_posts_) += shed;
  }
  return shed;
}

void Machine::wait_quiet() {
  std::unique_lock lock(idle_m_);
  idle_cv_.wait(lock, [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

std::exception_ptr Machine::take_error() {
  std::lock_guard el(error_m_);
  return std::exchange(first_error_, nullptr);
}

void Machine::wait_idle() {
  wait_quiet();
  if (const std::exception_ptr e = take_error()) std::rethrow_exception(e);
}

RunOutcome Machine::wait_idle_for(std::chrono::nanoseconds deadline) {
  bool idle;
  {
    std::unique_lock lock(idle_m_);
    idle = idle_cv_.wait_for(lock, deadline, [&] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
  RunOutcome out;
  out.faults = fault_totals_;
  out.lost_nodes = lost_nodes();
  if (!idle) {
    mark_unfinished(out, RunStatus::DeadlineExceeded);
    return out;
  }
  out.error = take_error();
  if (out.error) {
    out.status = RunStatus::TaskFailed;
    out.error_message = error_text(out.error);
  } else {
    out.status = RunStatus::Completed;
  }
  return out;
}

void Machine::throw_incomplete() const {
  RunOutcome o;
  o.faults = fault_totals_;
  o.lost_nodes = lost_nodes();
  mark_unfinished(o, RunStatus::Stalled);
  throw RunIncomplete(std::move(o));
}

void Machine::abandon_pending() {
  discarding_.store(true, std::memory_order_seq_cst);
  // Claim every Idle node's (nonexistent) activation via CAS and shed its
  // mailbox ourselves; Scheduled nodes have an activation in flight, and
  // whichever worker dispatches it sheds on seeing discarding_.
  for (auto& np : nodes_) {
    Node& node = *np;
    std::uint8_t expected = kIdle;
    if (node.state.compare_exchange_strong(expected, kScheduled,
                                           std::memory_order_seq_cst)) {
      // External thread: settle the shed credits directly. Worst case a
      // shed item's credit is still in some worker's unflushed delta, in
      // which case pending_ transiently wraps — nonzero, so waiters stay
      // conservatively blocked until that drain's flush nets it out.
      note_pending_sub(shed_and_release(node, /*as_dead_drops=*/false));
    }
  }
  // In-flight tasks finish (their onward posts are discarded above);
  // only then is the machine really quiet for the next attempt.
  wait_quiet();
  take_error();  // the abandoned attempt's error dies with it
  discarding_.store(false, std::memory_order_seq_cst);
}

void Machine::set_fault_plan(FaultPlan plan) {
  faults_enabled_.store(false, std::memory_order_release);
  faults_ = std::move(plan);
  for (auto& node : nodes_) {
    node->dead.store(false, std::memory_order_release);
  }
  faults_enabled_.store(faults_.enabled(), std::memory_order_release);
}

void Machine::revive(NodeId n) {
  nodes_[n]->dead.store(false, std::memory_order_release);
}

std::vector<NodeId> Machine::lost_nodes() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->dead.load(std::memory_order_acquire)) out.push_back(i);
  }
  return out;
}

void Machine::note_pending_sub(std::uint64_t k) {
  if (k == 0) return;
  if (pending_.fetch_sub(k, std::memory_order_acq_rel) == k) {
    std::lock_guard lock(idle_m_);
    idle_cv_.notify_all();
  }
}


void Machine::emit_fault(NodeId track, const char* kind,
                         std::uint64_t ordinal, NodeId peer) {
#if MOTIF_TRACING
  if (track != kNoNode && tracer_->active()) {
    tracer_->emit(track, TraceEventKind::Fault, kind, ordinal, peer, 0);
  }
#else
  (void)track;
  (void)kind;
  (void)ordinal;
  (void)peer;
#endif
}

bool Machine::kill_due(NodeId n, std::uint64_t task_no) const {
  for (const auto& k : faults_.kills) {
    if (k.node == n && k.after_tasks == task_no) return true;
  }
  return false;
}

bool Machine::throw_due(NodeId n, std::uint64_t task_no) const {
  for (const auto& t : faults_.throws) {
    if (t.node == n && t.on_task == task_no) return true;
  }
  return false;
}

LoadSummary Machine::load_summary() const {
  LoadSummary s = summarize(
      nodes_.size(),
      [&](std::size_t i) -> const NodeCounters& { return nodes_[i]->counters; });
  for (const auto& w : worker_data_) {
    s.sched.steals += w->steals.load(std::memory_order_relaxed);
    s.sched.parks += w->parks.load(std::memory_order_relaxed);
    s.sched.mailbox_fast_hits += w->fast_hits.load(std::memory_order_relaxed);
  }
  s.sched.mailbox_fast_hits += ext_fast_hits_;
  s.sched.injects = injects_;
  s.faults = fault_totals_;
  s.discarded_posts = discarded_posts_;
  return s;
}

std::uint32_t Machine::hop_distance(NodeId a, NodeId b) const {
  if (a == b) return 0;
  const auto n = static_cast<std::uint32_t>(nodes_.size());
  switch (topology_) {
    case Topology::Complete:
      return 1;
    case Topology::Ring: {
      const std::uint32_t d = a > b ? a - b : b - a;
      return std::min(d, n - d);
    }
    case Topology::Mesh2D: {
      const std::uint32_t ar = a / mesh_cols_, ac = a % mesh_cols_;
      const std::uint32_t br = b / mesh_cols_, bc = b % mesh_cols_;
      return (ar > br ? ar - br : br - ar) + (ac > bc ? ac - bc : bc - ac);
    }
    case Topology::Hypercube:
      return static_cast<std::uint32_t>(__builtin_popcount(a ^ b));
  }
  return 1;
}

}  // namespace motif::rt
