// The single-assignment cell: Strand's write-once variable (paper Section
// 2.1), the one synchronisation primitive under SVar, Stream list cells
// and interpreter Term variables.
//
// The binder builds the value under a small mutex, then publishes it with
// a release store of the state word; peek() is one acquire load, so a
// reader that sees "bound" sees the whole value, which never changes
// again. The mutex guards only the value write and the waiter list, so a
// waiter registered during a bind either lands in the list the binder
// drains or sees the published value. Waiters run once, on the binder's
// thread, after publication and outside the lock. Blocking readers wait
// on the state word (C++20 atomic wait).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/taskfn.hpp"

namespace motif::rt {

/// A write-once cell with continuation waiters. Share it through an owning
/// handle, and keep that handle alive across try_bind: the binder touches
/// the cell after publishing.
template <class T>
class Cell {
 public:
  Cell() = default;
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  /// The bound value, or nullptr while unbound. Lock-free; the pointer
  /// stays valid (and the value unchanged) for the life of the cell.
  const T* peek() const noexcept {
    return state_.load(std::memory_order_acquire) == kBound ? &*value_
                                                            : nullptr;
  }

  bool bound() const noexcept { return peek() != nullptr; }

  /// Binds to T(args...) unless already bound; returns whether this call
  /// bound it. On success, every registered waiter runs on this thread
  /// before return.
  template <class... Args>
  bool try_bind(Args&&... args) {
    std::vector<Waiter> waiters;
    {
      std::lock_guard lock(m_);
      if (state_.load(std::memory_order_relaxed) == kBound) return false;
      value_.emplace(std::forward<Args>(args)...);
      state_.store(kBound, std::memory_order_release);
      waiters.swap(waiters_);
    }
    state_.notify_all();
    for (auto& w : waiters) w(*value_);
    return true;
  }

  /// Runs `f(const T&)` once the cell is bound: inline if it already is,
  /// otherwise on the binder's thread.
  template <class F>
  void when_bound(F f) {
    if (peek() == nullptr) {
      std::lock_guard lock(m_);
      if (state_.load(std::memory_order_relaxed) != kBound) {
        waiters_.emplace_back(std::move(f));
        return;
      }
    }
    f(*value_);
  }

  /// Blocks until the cell is bound. For threads outside the Machine:
  /// workers must never block on data.
  const T& wait() const {
    state_.wait(kUnbound, std::memory_order_acquire);
    return *value_;
  }

 private:
  using Waiter = SmallFn<void(const T&)>;
  static constexpr std::uint32_t kUnbound = 0;
  static constexpr std::uint32_t kBound = 1;

  std::atomic<std::uint32_t> state_{kUnbound};
  std::mutex m_;
  std::optional<T> value_;       // written once, under m_, before publish
  std::vector<Waiter> waiters_;  // guarded by m_
};

}  // namespace motif::rt
