// Lock-free building blocks of the Machine scheduling core (DESIGN.md §10):
//
//   MpscQueue  — Vyukov-style intrusive multi-producer single-consumer
//                queue; one per virtual node ("the mailbox"). Producers
//                pay one atomic exchange + one release store per post.
//   WorkDeque  — Chase-Lev work-stealing deque of node activations; one
//                per worker. The owner pushes/pops LIFO (hot continuation
//                chains stay in cache), thieves steal FIFO.
//   EventCount — epoch/waiter-count parking lot backing the adaptive
//                spin → yield → park idling policy, replacing the old
//                broadcast condvar on every post.
//
// Memory-order note: the wakeup-critical edges below are store-buffering
// (Dekker) patterns — "producer publishes work then checks for sleepers;
// consumer announces sleep then rechecks work" — where BOTH sides reading
// stale values loses a wakeup. Each such edge uses seq_cst on all four
// accesses (the RMWs are already locked instructions on x86, and seq_cst
// loads are plain loads there, so this costs nothing on the fast path).
// We deliberately use seq_cst *operations* rather than the textbook
// std::atomic_thread_fence formulations: TSAN does not model fences, and
// every `machine`-labelled suite runs under the tsan preset.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace motif::rt {

/// Compiler/CPU hint for short spin loops.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Intrusive hook embedded in every mailbox entry.
struct MpscLink {
  std::atomic<MpscLink*> next{nullptr};
};

/// Vyukov intrusive MPSC queue. push() is wait-free for producers; pop()
/// is single-consumer. It returns the oldest entry, or false when the
/// queue was observably empty (back_ == &stub_): a linearizable verdict
/// producers cannot fake. A producer caught mid-push (between its back_
/// exchange and its prev->next store) has its entry instants away, so
/// pop() spins for it.
///
/// maybe_nonempty() is a producer-visible probe with one caveat: it can
/// report *false negatives* while the consumer's own stub re-insertion is
/// in flight, so it is only meaningful AFTER an empty verdict (at which
/// point the chain is exactly [stub] and any later push flips it). The
/// Machine's node-release protocol relies on precisely that window and
/// nothing else; never use it to decide "no work" mid-drain.
class MpscQueue {
 public:
  MpscQueue() noexcept : back_(&stub_), front_(&stub_) {}
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Multi-producer. seq_cst exchange: pairs with the consumer's release
  /// protocol (store Idle; load back_) so a push concurrent with a release
  /// is seen by at least one side.
  void push(MpscLink* n) noexcept {
    n->next.store(nullptr, std::memory_order_relaxed);
    MpscLink* prev = back_.exchange(n, std::memory_order_seq_cst);
    prev->next.store(n, std::memory_order_release);
  }

  /// Single-consumer; see the class comment.
  bool pop(MpscLink** out) noexcept {
    for (std::uint32_t spins = 0;; ++spins) {
      const Pop r = try_pop(out);
      if (r != Pop::kRetry) return r == Pop::kItem;
      if (spins >= 64) {
        std::this_thread::yield();
      } else {
        cpu_relax();
      }
    }
  }

  /// See the class comment: trustworthy only after an empty verdict.
  bool maybe_nonempty() const noexcept {
    return back_.load(std::memory_order_seq_cst) != &stub_;
  }

 private:
  enum class Pop { kItem, kEmpty, kRetry };

  Pop try_pop(MpscLink** out) noexcept {
    MpscLink* front = front_;
    MpscLink* next = front->next.load(std::memory_order_acquire);
    if (front == &stub_) {
      if (next == nullptr) {
        return back_.load(std::memory_order_seq_cst) == &stub_ ? Pop::kEmpty
                                                               : Pop::kRetry;
      }
      front_ = next;
      front = next;
      next = front->next.load(std::memory_order_acquire);
    }
    if (next != nullptr) {
      front_ = next;
      *out = front;
      return Pop::kItem;
    }
    // `front` looks like the last entry. Confirm, then re-insert the stub
    // behind it so the chain stays intact while we detach `front`.
    if (front != back_.load(std::memory_order_seq_cst)) {
      return Pop::kRetry;  // a producer appended but has not linked yet
    }
    // No producer can hold a dangling prev == &stub_ reference here: the
    // previous stub epoch's (single) successor link was consumed when
    // front_ advanced past the stub, and the next epoch starts only with
    // the exchange below.
    stub_.next.store(nullptr, std::memory_order_relaxed);
    MpscLink* prev = back_.exchange(&stub_, std::memory_order_seq_cst);
    prev->next.store(&stub_, std::memory_order_release);
    next = front->next.load(std::memory_order_acquire);
    if (next != nullptr) {
      front_ = next;
      *out = front;
      return Pop::kItem;
    }
    return Pop::kRetry;  // raced with a producer between confirm and swap
  }

  std::atomic<MpscLink*> back_;  // producers exchange; newest entry
  MpscLink* front_;              // consumer-owned; oldest entry
  MpscLink stub_;
};

/// Chase-Lev work-stealing deque of 32-bit ids (node activations). The
/// owner pushes and pops at the bottom (LIFO); thieves steal at the top
/// (FIFO). Returns kNone when empty or when a steal race aborts.
///
/// The buffer grows by doubling; retired buffers are kept until
/// destruction because a thief may still be reading a stale buffer
/// pointer — its top_ CAS then fails harmlessly, and logical indices are
/// position-stable across the copy, so even a stale read that *wins* the
/// CAS read the right value.
class WorkDeque {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  explicit WorkDeque(std::size_t capacity = 64) {
    bufs_.push_back(std::make_unique<Buf>(round_up(capacity)));
    buf_.store(bufs_.back().get(), std::memory_order_relaxed);
  }
  WorkDeque(const WorkDeque&) = delete;
  WorkDeque& operator=(const WorkDeque&) = delete;

  /// Owner only.
  void push(std::uint32_t x) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Buf* a = buf_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(a->mask)) a = grow(a, t, b);
    a->slots[b & static_cast<std::int64_t>(a->mask)].store(
        x, std::memory_order_relaxed);
    // seq_cst publish: pairs with a parking thief's maybe_nonempty probe.
    // (exchange, not store: one locked instruction on x86 instead of a
    // store + full fence.)
    bottom_.exchange(b + 1, std::memory_order_seq_cst);
  }

  /// Owner only.
  std::uint32_t pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buf* a = buf_.load(std::memory_order_relaxed);
    bottom_.exchange(b, std::memory_order_seq_cst);  // see push()
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // empty: restore
      bottom_.store(b + 1, std::memory_order_relaxed);
      return kNone;
    }
    std::uint32_t x =
        a->slots[b & static_cast<std::int64_t>(a->mask)].load(
            std::memory_order_relaxed);
    if (t == b) {
      // Last entry: race the thieves for it.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        x = kNone;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return x;
  }

  /// Any thread. One attempt; aborts (kNone) on a lost race.
  std::uint32_t steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return kNone;
    Buf* a = buf_.load(std::memory_order_acquire);
    const std::uint32_t x =
        a->slots[t & static_cast<std::int64_t>(a->mask)].load(
            std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return kNone;
    }
    return x;
  }

  /// Sleep-gate probe (any thread); pairs with push()'s seq_cst publish.
  bool maybe_nonempty() const {
    return bottom_.load(std::memory_order_seq_cst) >
           top_.load(std::memory_order_seq_cst);
  }

 private:
  struct Buf {
    explicit Buf(std::size_t cap)
        : mask(cap - 1), slots(new std::atomic<std::uint32_t>[cap]) {}
    std::size_t mask;
    std::unique_ptr<std::atomic<std::uint32_t>[]> slots;
  };

  static std::size_t round_up(std::size_t n) {
    std::size_t c = 8;
    while (c < n) c <<= 1;
    return c;
  }

  Buf* grow(Buf* a, std::int64_t t, std::int64_t b) {
    bufs_.push_back(std::make_unique<Buf>((a->mask + 1) * 2));
    Buf* n = bufs_.back().get();
    for (std::int64_t i = t; i < b; ++i) {
      n->slots[i & static_cast<std::int64_t>(n->mask)].store(
          a->slots[i & static_cast<std::int64_t>(a->mask)].load(
              std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    buf_.store(n, std::memory_order_release);
    return n;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buf*> buf_{nullptr};
  std::vector<std::unique_ptr<Buf>> bufs_;  // owner-only; current + retired
};

/// Eventcount: lets idle workers sleep without a lost-wakeup window and
/// lets producers skip the kernel entirely when nobody sleeps (one seq_cst
/// load on the post path — versus the old notify_one on every post).
///
/// Waiter:   prepare_wait() → recheck work → commit_wait(key) or
///           cancel_wait().
/// Notifier: publish work (seq_cst) → notify_if_waiting().
class EventCount {
 public:
  std::uint64_t prepare_wait() noexcept {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_seq_cst);
  }

  void cancel_wait() noexcept {
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

  void commit_wait(std::uint64_t key) {
    {
      std::unique_lock lock(m_);
      cv_.wait(lock, [&] {
        return epoch_.load(std::memory_order_relaxed) != key;
      });
    }
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Fast path: no sleepers, no kernel. The epoch bump under the mutex
  /// closes the race with a waiter between its epoch read and its sleep.
  /// Wakes ONE sleeper: each published item carries its own notify, so a
  /// broadcast would just stampede W-1 workers into finding nothing
  /// (ruinous when the host is oversubscribed).
  void notify_if_waiting() {
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    {
      std::lock_guard lock(m_);
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_one();
  }

  /// Unconditional broadcast (shutdown): wakes everyone.
  void notify_all() {
    {
      std::lock_guard lock(m_);
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
  std::mutex m_;
  std::condition_variable cv_;
};

}  // namespace motif::rt
