// Runtime tracing: per-node (per-*track*) event timelines for the
// simulated multicomputer.
//
// The paper's argument for motifs rests on *observable parallel shape* —
// Tree-Reduce-2 is preferred over Tree-Reduce-1 because it bounds
// concurrent node evaluations and inter-processor messages (Section 3.5).
// Aggregate counters (LoadSummary) verify the totals; this tracer records
// the *timeline*: task-execution spans, message send/receive edges with
// matched ids (so cross-node arrows render), eval-scope begin/end (making
// "at most one active evaluation per processor" visible on a track), and
// user-named motif spans (TRACE_SPAN("tree_reduce2.combine")).
//
// Design:
//  * One bounded ring buffer of fixed-size TraceEvent records per track.
//    A track has a single writer at any moment (a Machine node's tasks
//    run sequentially), so emission is lock-free: plain stores plus one
//    release store of the head index.
//    On overflow the oldest record is dropped and a dropped-event counter
//    ticks; exports report it. Rings are allocated by the first start(),
//    so a tracer that never records holds no ring memory.
//  * Readers (drain) run only while writers are quiescent (machine idle,
//    trace stopped); the head's release/acquire pair publishes records.
//  * Compile-time zero cost: with MOTIF_TRACING=0 every hook —
//    TRACE_SPAN, the eval hooks, the Machine instrumentation — compiles
//    to nothing. With MOTIF_TRACING=1 an inactive tracer costs one
//    relaxed atomic load per hook.
//
// Exporters: Chrome trace-event JSON (chrome://tracing, Perfetto; one
// thread track per virtual node, flow events for remote messages) and a
// plain-text per-track histogram summary.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#ifndef MOTIF_TRACING
#define MOTIF_TRACING 1
#endif

namespace motif::rt {

enum class TraceEventKind : std::uint8_t {
  TaskBegin,   ///< a Machine task starts on this track
  TaskEnd,     ///< ...ends; `id` holds the virtual-work units it executed
  EvalBegin,   ///< an EvalScope (node evaluation) opens on this thread
  EvalEnd,     ///< ...closes
  SpanBegin,   ///< TRACE_SPAN opens; `name` holds the label
  SpanEnd,     ///< ...closes
  MsgSend,     ///< remote post: `id` message id, `peer` dst track, `hops`
  MsgRecv,     ///< matching delivery: same `id`, `peer` src track
  Fault,       ///< injected fault: `name` kind (drop/dup/delay/kill/throw),
               ///< `peer` the other node involved, `id` the fault ordinal
};

/// Fixed-size trace record. Span labels are stored inline (truncated to
/// kNameBytes-1) so rings need no allocation and drop-oldest is O(1).
struct TraceEvent {
  static constexpr std::size_t kNameBytes = 31;

  std::uint64_t ts_ns = 0;  ///< nanoseconds since the tracer's epoch
  std::uint64_t id = 0;     ///< message id / work units (kind-dependent)
  std::uint32_t peer = 0;   ///< peer track for message events
  std::uint32_t hops = 0;   ///< topology hops for message events
  TraceEventKind kind = TraceEventKind::TaskBegin;
  char name[kNameBytes] = {};

  void set_name(const char* s) {
    std::size_t n = 0;
    if (s != nullptr) {
      n = std::min(std::strlen(s), kNameBytes - 1);
      std::memcpy(name, s, n);
    }
    name[n] = '\0';
  }
};
static_assert(sizeof(TraceEvent) == 56, "keep records cache-friendly");

/// Bounded single-writer ring. The writer owns head and tail; when full
/// it advances the tail (drop-oldest) and counts the drop. drain() may
/// only run while the writer is quiescent.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity)
      : buf_(capacity < 2 ? 2 : capacity) {}

  void emit(const TraceEvent& e) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (h - t == buf_.size()) {
      tail_.store(t + 1, std::memory_order_relaxed);
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    buf_[h % buf_.size()] = e;
    head_.store(h + 1, std::memory_order_release);
  }

  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return buf_.size(); }

  /// Oldest-first snapshot; clears the ring and the dropped counter.
  std::vector<TraceEvent> drain() {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    std::vector<TraceEvent> out;
    out.reserve(static_cast<std::size_t>(h - t));
    for (std::uint64_t i = t; i < h; ++i) out.push_back(buf_[i % buf_.size()]);
    tail_.store(h, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
    return out;
  }

 private:
  std::vector<TraceEvent> buf_;
  std::atomic<std::uint64_t> head_{0};  // next write slot (monotonic)
  std::atomic<std::uint64_t> tail_{0};  // oldest retained (monotonic)
  std::atomic<std::uint64_t> dropped_{0};
};

/// One exported timeline plus its overflow count.
struct TraceTrack {
  std::string name;
  std::vector<TraceEvent> events;  // oldest first
  std::uint64_t dropped = 0;
};

struct TraceLog {
  std::vector<TraceTrack> tracks;

  bool empty() const {
    for (const auto& t : tracks) {
      if (!t.events.empty()) return false;
    }
    return true;
  }
  std::size_t total_events() const {
    std::size_t n = 0;
    for (const auto& t : tracks) n += t.events.size();
    return n;
  }
};

struct TracerOptions {
  std::size_t track_capacity = 8192;  ///< events retained per track
};

/// A set of single-writer timelines with a shared epoch, activity flag
/// and message-id source. A Machine owns one, with one track per virtual
/// node.
///
/// Thread contract: emit() is safe from one writer per track at a time;
/// add_track(), start(), stop() and drain() must not race with emitters
/// (call them while the machine is quiescent).
class Tracer {
 public:
  explicit Tracer(TracerOptions opts = {}) : opts_(opts) {}

  std::uint32_t add_track(std::string name) {
    tracks_.push_back(std::make_unique<Track>(std::move(name)));
    return static_cast<std::uint32_t>(tracks_.size() - 1);
  }

  std::uint32_t track_count() const {
    return static_cast<std::uint32_t>(tracks_.size());
  }

  /// Clears all rings (the first start() allocates them), resets the
  /// epoch, and begins recording.
  void start() {
    for (auto& t : tracks_) {
      if (t->ring) {
        t->ring->drain();
      } else {
        t->ring.emplace(opts_.track_capacity);
      }
    }
    epoch_ = std::chrono::steady_clock::now();
    msg_ids_.store(0, std::memory_order_relaxed);
    active_.store(true, std::memory_order_release);
  }

  void stop() { active_.store(false, std::memory_order_release); }

  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Fresh nonzero id for one send/receive pair.
  std::uint64_t next_msg_id() {
    return msg_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Stamps and records one event; no-op while inactive.
  void emit(std::uint32_t track, TraceEventKind kind,
            const char* name = nullptr, std::uint64_t id = 0,
            std::uint32_t peer = 0, std::uint32_t hops = 0) {
    if (!active()) return;
    TraceEvent e;
    e.ts_ns = now_ns();
    e.id = id;
    e.peer = peer;
    e.hops = hops;
    e.kind = kind;
    e.set_name(name);
    tracks_[track]->ring->emit(e);
  }

  /// Stops recording and snapshots every track (rings are cleared; track
  /// registrations persist, so a later start() records a fresh run).
  TraceLog drain() {
    stop();
    TraceLog log;
    log.tracks.reserve(tracks_.size());
    for (auto& t : tracks_) {
      TraceTrack out;
      out.name = t->name;
      if (t->ring) {
        out.dropped = t->ring->dropped();  // read before drain() clears it
        out.events = t->ring->drain();
      }
      log.tracks.push_back(std::move(out));
    }
    return log;
  }

 private:
  struct Track {
    std::string name;
    std::optional<TraceRing> ring;  // allocated by the first start()
    explicit Track(std::string n) : name(std::move(n)) {}
  };

  TracerOptions opts_;
  std::vector<std::unique_ptr<Track>> tracks_;
  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> msg_ids_{0};
  std::chrono::steady_clock::time_point epoch_{};
};

// ---- thread-track binding -------------------------------------------------
//
// Emission sites inside motif code (TRACE_SPAN, EvalScope) don't know
// which Machine or track they run on; the executor binds the calling
// thread to (tracer, track) for the duration of a node drain, and the
// hooks emit through the binding. Unbound threads no-op.

namespace trace_detail {
struct ThreadBinding {
  Tracer* tracer = nullptr;
  std::uint32_t track = 0;
};
/// Constant-initialised and inline, so a hook reads it with one TLS load:
/// no call, and no guard for a dynamic initialiser.
inline constinit thread_local ThreadBinding tl_binding{};
}  // namespace trace_detail

/// RAII: binds the calling thread to one tracer track, restoring the
/// previous binding on destruction (bindings nest).
class ThreadTrackGuard {
 public:
  ThreadTrackGuard(Tracer* tracer, std::uint32_t track)
      : prev_(trace_detail::tl_binding) {
    trace_detail::tl_binding = {tracer, track};
  }
  ~ThreadTrackGuard() { trace_detail::tl_binding = prev_; }
  ThreadTrackGuard(const ThreadTrackGuard&) = delete;
  ThreadTrackGuard& operator=(const ThreadTrackGuard&) = delete;

 private:
  trace_detail::ThreadBinding prev_;
};

namespace trace_detail {
/// The recording path of trace_emit_here, kept out of line so that each
/// hook site stays two loads and a branch.
[[gnu::noinline]] inline void emit_bound(TraceEventKind kind, const char* name,
                                         std::uint64_t id, std::uint32_t peer,
                                         std::uint32_t hops) {
  tl_binding.tracer->emit(tl_binding.track, kind, name, id, peer, hops);
}
}  // namespace trace_detail

/// Emits through the calling thread's binding (no-op when unbound or the
/// bound tracer is inactive). The inactive test is inline, so a hook in a
/// hot loop costs a TLS load and a relaxed load while no trace records.
inline void trace_emit_here(TraceEventKind kind, const char* name = nullptr,
                            std::uint64_t id = 0, std::uint32_t peer = 0,
                            std::uint32_t hops = 0) {
  const auto& b = trace_detail::tl_binding;
  if (b.tracer != nullptr && b.tracer->active()) [[unlikely]] {
    trace_detail::emit_bound(kind, name, id, peer, hops);
  }
}

#if MOTIF_TRACING
inline void trace_eval_begin() {
  trace_emit_here(TraceEventKind::EvalBegin);
}
inline void trace_eval_end() { trace_emit_here(TraceEventKind::EvalEnd); }
#else
inline void trace_eval_begin() {}
inline void trace_eval_end() {}
#endif

/// Named span over a scope; emits SpanBegin/SpanEnd on the bound track.
/// `name` must outlive the span (string literals in practice).
class ScopedTraceSpan {
 public:
  explicit ScopedTraceSpan(const char* name) : name_(name) {
    trace_emit_here(TraceEventKind::SpanBegin, name_);
  }
  ~ScopedTraceSpan() { trace_emit_here(TraceEventKind::SpanEnd, name_); }
  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

 private:
  const char* name_;
};

// ---- exporters -------------------------------------------------------------

/// Chrome trace-event JSON (load in chrome://tracing or Perfetto). One
/// thread per track (pid 0), B/E slices for tasks/evals/spans, s/f flow
/// events for matched remote messages, and a metadata record per track
/// carrying the dropped-event count.
void write_chrome_trace(const TraceLog& log, std::ostream& os);

/// Plain-text per-track histogram: event totals, max concurrent evals,
/// message counts, span counts by name, dropped events.
void write_text_summary(const TraceLog& log, std::ostream& os);

/// Maximum nesting depth of begin/end pairs of the given kinds on one
/// track (e.g. EvalBegin/EvalEnd: the paper's "one active evaluation per
/// processor" bound is max_concurrent(...) <= 1). Tolerates truncated
/// logs (unmatched ends after drop-oldest are ignored).
std::uint64_t max_concurrent(const TraceTrack& track, TraceEventKind begin,
                             TraceEventKind end);

}  // namespace motif::rt

// TRACE_SPAN("tree_reduce2.combine"): names the enclosing scope on the
// current track. Compiles away entirely under MOTIF_TRACING=0.
#if MOTIF_TRACING
#define MOTIF_TRACE_CAT2(a, b) a##b
#define MOTIF_TRACE_CAT(a, b) MOTIF_TRACE_CAT2(a, b)
#define TRACE_SPAN(name) \
  ::motif::rt::ScopedTraceSpan MOTIF_TRACE_CAT(motif_trace_span_, \
                                               __LINE__)(name)
#else
#define TRACE_SPAN(name) \
  do {                   \
  } while (false)
#endif
