#include "net/cluster.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

namespace motif::net {

namespace {
/// Flow ids for cross-rank MsgSend/MsgRecv pairs: rank in the high bits,
/// a per-rank sequence in the low bits, so ids from different ranks can
/// never collide in a merged trace.
std::uint64_t flow_id(std::uint32_t rank, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(rank + 1) << 40) | (seq & ((1ull << 40) - 1));
}
/// Pause between termination-probe rounds on rank 0.
constexpr std::chrono::milliseconds kProbeInterval{2};
}  // namespace

Cluster::Cluster(Transport& transport, ClusterConfig cfg)
    : transport_(transport), cfg_(std::move(cfg)), per_(cfg_.nodes_per_rank) {
  if (per_ == 0) throw std::invalid_argument("nodes_per_rank must be > 0");
  rt::MachineConfig mc = cfg_.machine;
  mc.nodes = per_;
  machine_ = std::make_unique<rt::Machine>(mc);
  transport_.set_receiver(
      [this](Frame&& f, std::size_t wire) { on_frame(std::move(f), wire); });
}

Cluster::~Cluster() {
  // Order matters: silence the wire first so no new frames can post
  // tasks; then discard queued handler tasks instead of running them —
  // they hold references into handlers_ (and whatever the handlers
  // capture, e.g. a motif destroyed before this cluster); then stop the
  // workers. Only after that may the members destruct.
  transport_.stop();
  machine_->abandon_pending();
  machine_->shutdown();
}

std::uint16_t Cluster::register_handler(std::string name, Handler h) {
  if (started_) throw std::logic_error("register_handler after start()");
  handlers_.emplace_back(std::move(name), std::move(h));
  return static_cast<std::uint16_t>(handlers_.size() - 1);
}

void Cluster::start() {
  started_ = true;
  transport_.start();
}

void Cluster::post(GlobalNode dst, std::uint16_t handler, term::Term payload) {
  if (dst >= global_nodes()) {
    throw std::out_of_range("cluster post: node " + std::to_string(dst) +
                            " outside global space");
  }
  if (handler >= handlers_.size()) {
    throw std::out_of_range("cluster post: unregistered handler");
  }
  const std::uint32_t to = owner(dst);
  if (to == rank()) {
    Handler& h = handlers_[handler].second;
    machine_->post(local_of(dst),
                   [&h, payload = std::move(payload)] { h(payload); });
    return;
  }

  Frame f;
  f.type = FrameType::Post;
  f.src_rank = rank();
  f.dst_node = dst;
  f.handler = handler;
  f.trace_id = flow_id(rank(), trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  f.payload = std::move(payload);

  if (cfg_.net_faults.enabled()) {
    const std::uint64_t nth =
        send_ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
    switch (cfg_.net_faults.post_fault(rank(), nth)) {
      case rt::PostFault::Drop:
        // Never reaches the wire, never counted as sent — so the
        // termination detector's sent==received comparison stays exact.
        net_.drops += 1;
        rt::trace_emit_here(rt::TraceEventKind::Fault, "net.drop", nth, to);
        return;
      case rt::PostFault::Duplicate:
        net_.dups += 1;
        rt::trace_emit_here(rt::TraceEventKind::Fault, "net.dup", nth, to);
        send_data(to, f);
        send_data(to, f);
        return;
      case rt::PostFault::Delay: {
        net_.delays += 1;
        rt::trace_emit_here(rt::TraceEventKind::Fault, "net.delay", nth, to);
        std::lock_guard<std::mutex> lk(delayed_m_);
        delayed_.emplace_back(to, std::move(f));
        return;
      }
      case rt::PostFault::None:
        break;
    }
  }
  send_data(to, f);
}

void Cluster::send_data(std::uint32_t to, Frame& f) {
  rt::trace_emit_here(rt::TraceEventKind::MsgSend,
                      handlers_[f.handler].first.c_str(), f.trace_id, to);
  const std::size_t bytes = transport_.send(to, f);
  net_.tx_bytes += bytes;
  net_.tx_frames += 1;
  // A delayed frame is "re-queued behind later arrivals": ship anything
  // parked for this rank now that a later frame has passed it.
  flush_delayed(to);
}

void Cluster::send_ctl(std::uint32_t to, const Frame& f) {
  const std::size_t bytes = transport_.send(to, f);
  net_.tx_bytes += bytes;
  net_.ctl_frames += 1;
}

void Cluster::flush_delayed(std::uint32_t to) {
  std::vector<Frame> due;
  {
    std::lock_guard<std::mutex> lk(delayed_m_);
    for (std::size_t i = 0; i < delayed_.size();) {
      if (to == kAllRanks || delayed_[i].first == to) {
        due.push_back(std::move(delayed_[i].second));
        delayed_.erase(delayed_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  for (Frame& f : due) {
    const std::uint32_t dst_rank = owner(static_cast<GlobalNode>(f.dst_node));
    try {
      const std::size_t bytes = transport_.send(dst_rank, f);
      net_.tx_bytes += bytes;
      net_.tx_frames += 1;
    } catch (const std::exception&) {
      // Peer lost: the frame never reached the wire, so it must not be
      // counted as sent (termination detection stays exact) — record it
      // as a drop and keep flushing the rest.
      net_.drops += 1;
    }
  }
}

bool Cluster::delayed_empty() const {
  std::lock_guard<std::mutex> lk(delayed_m_);
  return delayed_.empty();
}

void Cluster::on_frame(Frame&& f, std::size_t wire_bytes) {
  net_.rx_bytes += wire_bytes;
  switch (f.type) {
    case FrameType::Post:
      net_.rx_frames += 1;
      deliver_post(std::move(f));
      return;
    case FrameType::Probe: {
      // Flush delays first so a parked frame cannot look like global
      // quiescence; then report. Per-peer FIFO means every Post this
      // probe's sender shipped before it is already counted in rx.
      // Runs on the transport's receiver thread, so outbound failures
      // (a lost peer, a stopping transport) must not escape — a dropped
      // reply surfaces on rank 0 as a probe timeout, not as a crash of
      // this rank's I/O thread.
      try {
        flush_delayed(kAllRanks);
        Frame r;
        r.type = FrameType::ProbeReply;
        r.src_rank = rank();
        r.round = f.round;
        r.tx = net_.tx_frames;
        r.rx = net_.rx_frames;
        r.idle = machine_->idle() && delayed_empty();
        send_ctl(f.src_rank, r);
      } catch (const std::exception&) {
      }
      return;
    }
    case FrameType::ProbeReply: {
      std::lock_guard<std::mutex> lk(state_m_);
      if (f.round == reply_round_) {
        const std::uint32_t src = f.src_rank;
        replies_[src] = std::move(f);
        state_cv_.notify_all();
      }
      return;
    }
    case FrameType::Shutdown: {
      // Only rank 0 sends one; from a follower it is the transport's
      // notice that the follower's link was lost (transport.hpp).
      std::lock_guard<std::mutex> lk(state_m_);
      (f.src_rank == 0 ? shutdown_seen_ : follower_lost_) = true;
      state_cv_.notify_all();
      return;
    }
    case FrameType::Hello:
      return;  // transport-level; nothing to do here
  }
}

void Cluster::deliver_post(Frame&& f) {
  if (f.handler >= handlers_.size()) {
    std::fprintf(stderr, "[net] rank %u: post for unknown handler %u dropped\n",
                 rank(), f.handler);
    return;
  }
  const rt::NodeId local = local_of(static_cast<GlobalNode>(f.dst_node));
  Handler& h = handlers_[f.handler].second;
  const char* name = handlers_[f.handler].first.c_str();
  machine_->post(local, [&h, name, id = f.trace_id, src = f.src_rank,
                         payload = std::move(f.payload)] {
    rt::trace_emit_here(rt::TraceEventKind::MsgRecv, name, id, src);
    h(payload);
  });
}

rt::RunOutcome Cluster::deadline_outcome() {
  rt::RunOutcome o = machine_->wait_idle_for(std::chrono::milliseconds(1));
  if (o.ok()) {
    // Locally quiet but the cluster never converged.
    o.status = rt::RunStatus::DeadlineExceeded;
    rt::mark_unfinished(o, "");
  }
  return o;
}

rt::RunOutcome Cluster::wait_idle_for(std::chrono::nanoseconds deadline) {
  if (rank() != 0) {
    throw std::logic_error("Cluster::wait_idle_for is rank-0 only");
  }
  if (ranks() == 1) return machine_->wait_idle_for(deadline);
  const auto deadline_tp = std::chrono::steady_clock::now() + deadline;
  bool have_prev = false;
  bool prev_idle = false;
  std::uint64_t prev_tx = 0, prev_rx = 0;
  std::uint64_t round = 0;

  for (;;) {
    if (std::chrono::steady_clock::now() >= deadline_tp) {
      return deadline_outcome();
    }
    flush_delayed(kAllRanks);
    const bool local_idle = machine_->idle() && delayed_empty();
    const std::uint64_t local_tx = net_.tx_frames;
    const std::uint64_t local_rx = net_.rx_frames;

    ++round;
    {
      std::lock_guard<std::mutex> lk(state_m_);
      reply_round_ = round;
      replies_.clear();
    }
    Frame probe;
    probe.type = FrameType::Probe;
    probe.src_rank = 0;
    probe.round = round;
    for (std::uint32_t r = 1; r < ranks(); ++r) {
      try {
        send_ctl(r, probe);
      } catch (const std::exception&) {
        std::lock_guard<std::mutex> lk(state_m_);
        follower_lost_ = true;  // its link is gone, or this rank stopped
      }
    }

    {
      std::unique_lock<std::mutex> lk(state_m_);
      const bool complete = state_cv_.wait_until(lk, deadline_tp, [&] {
        return follower_lost_ || replies_.size() == ranks() - 1;
      });
      if (follower_lost_) {
        lk.unlock();
        rt::RunOutcome o = deadline_outcome();
        o.status = rt::RunStatus::NodeLost;
        return o;
      }
      if (complete) {
        bool all_idle = local_idle;
        std::uint64_t tx = local_tx, rx = local_rx;
        for (const auto& [r, reply] : replies_) {
          all_idle = all_idle && reply.idle;
          tx += reply.tx;
          rx += reply.rx;
        }
        const bool stable = have_prev && prev_idle && all_idle &&
                            tx == rx && prev_tx == tx && prev_rx == rx;
        have_prev = true;
        prev_idle = all_idle;
        prev_tx = tx;
        prev_rx = rx;
        if (stable) {
          lk.unlock();
          return machine_->wait_idle_for(std::max<std::chrono::nanoseconds>(
              deadline_tp - std::chrono::steady_clock::now(),
              std::chrono::nanoseconds(1)));
        }
      }
    }
    std::this_thread::sleep_for(kProbeInterval);
  }
}

void Cluster::serve() {
  if (rank() == 0) return;
  {
    // shutdown_seen_ is also set when rank 0's link is lost, so this wait
    // ends without a Shutdown from a rank 0 that went away.
    std::unique_lock<std::mutex> lk(state_m_);
    state_cv_.wait(lk, [&] { return shutdown_seen_; });
  }
  // Stopped from this thread, never from the transport's receiver thread
  // (a TCP I/O thread cannot join itself).
  transport_.stop();
}

void Cluster::shutdown() {
  {
    std::lock_guard<std::mutex> lk(state_m_);
    if (shutdown_done_) return;
    shutdown_done_ = true;
  }
  if (rank() == 0) {
    Frame f;
    f.type = FrameType::Shutdown;
    f.src_rank = 0;
    for (std::uint32_t r = 1; r < ranks(); ++r) {
      try {
        send_ctl(r, f);
      } catch (const std::exception&) {
        // peer already gone; shutdown is best-effort
      }
    }
  }
  transport_.stop();
}

}  // namespace motif::net
