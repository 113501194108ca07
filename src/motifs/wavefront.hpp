// Wavefront motif: dynamic-programming recurrences on a 2-D grid where
// cell (i,j) depends on (i-1,j), (i,j-1) and (i-1,j-1) — the classic
// "grid problem" shape of the paper's Section 4, and exactly the
// dependence structure of the case study's own low-level kernel (the
// Needleman–Wunsch and profile alignment matrices, align/traceback.hpp).
//
// The grid is tiled; a tile is ready once its upper and left neighbours
// are done, so anti-diagonals of tiles can run in parallel. One engine
// serves every form. The caller (the *owner*) runs ready tiles itself;
// while more tiles are ready than running threads will take, the run sits
// on the machine's offer board, and an idle worker pulls a helper from it
// onto an idle processor. A helper claims whatever tiles are ready when it
// runs, lingers while tiles that may release more are running, and leaves
// when none are. The owner only ever waits for a tile a running helper has
// already claimed, so a helper that never comes costs parallelism, never
// progress, and the engine can run inside a task.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/machine.hpp"
#include "runtime/svar.hpp"

namespace motif {

/// Default tile edge of every wavefront.
inline constexpr std::size_t kWavefrontTile = 64;

namespace detail {

/// The tile graph of one wavefront run, shared by its owner and helpers.
/// `m == nullptr` is the caller-alone form: the owner runs every tile.
template <class TileBody>
class WaveTiles final
    : public rt::Offer,
      public std::enable_shared_from_this<WaveTiles<TileBody>> {
 public:
  WaveTiles(rt::Machine* m, std::size_t rows, std::size_t cols,
            std::size_t tile, TileBody body)
      : m_(m), rows_(rows), cols_(cols), tile_(std::max<std::size_t>(tile, 1)),
        tc_((cols + tile_ - 1) / tile_), body_(std::move(body)),
        deps_(((rows + tile_ - 1) / tile_) * tc_), remaining_(deps_.size()) {
    for (std::size_t t = 0; t < deps_.size(); ++t) {
      deps_[t] = static_cast<std::uint8_t>((t >= tc_) + (t % tc_ > 0));
    }
    if (remaining_ > 0) ready_.push_back(0);
  }

  /// Runs tiles until all are done, then returns; or, once a tile has
  /// thrown and no helper is still inside one, rethrows its exception.
  void run_owner() {
    // Off the board on every way out. Once the loop below has ended no
    // tile finishes, so no publish puts the run back.
    struct OffBoard {
      WaveTiles* t;
      ~OffBoard() { if (t->m_ != nullptr) t->m_->withdraw(*t); }
    } off{this};
    std::unique_lock<std::mutex> lk(mu_);
    while (failed_ ? running_ > 0 : remaining_ > 0) {
      if (!failed_ && !ready_.empty()) {
        run_claimed(lk);
      } else {
        // The earliest unfinished tile is claimed by a running helper.
        await_tile(lk);
      }
    }
    if (error_) std::rethrow_exception(error_);
  }

 private:
  rt::Task helper() override {
    return [self = this->shared_from_this()] { self->help(); };
  }

  /// A helper task: claims ready tiles, and lingers while tiles run that
  /// may release more, so those need no idle worker to come.
  void help() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!failed_ && (!ready_.empty() || running_ > 0)) {
      if (!ready_.empty()) {
        run_claimed(lk);
      } else {
        await_tile(lk);
      }
    }
  }

  /// Waits, without `lk`, until some tile finishes or fails. It yields
  /// instead of sleeping: the awaited tile is already running, and a
  /// sleeping thread is slow to wake on a busy host.
  void await_tile(std::unique_lock<std::mutex>& lk) {
    ++waiting_;
    const std::uint32_t seen = epoch_.load(std::memory_order_relaxed);
    lk.unlock();
    while (epoch_.load(std::memory_order_acquire) == seen) {
      std::this_thread::yield();
    }
    lk.lock();
    --waiting_;
  }

  /// Claims the next ready tile and runs it; `lk` is held on entry and
  /// on return, not while the body runs.
  void run_claimed(std::unique_lock<std::mutex>& lk) {
    const std::size_t t = ready_.back();
    ready_.pop_back();
    ++running_;
    lk.unlock();
    const std::size_t bi = t / tc_, bj = t % tc_;
    std::exception_ptr error;
    try {
      TRACE_SPAN("wavefront.tile");
      body_(bi * tile_, std::min(rows_, (bi + 1) * tile_), bj * tile_,
            std::min(cols_, (bj + 1) * tile_));
    } catch (...) {
      error = std::current_exception();
    }
    lk.lock();
    --running_;
    if (error) {
      if (!error_) error_ = error;
      failed_ = true;
      spare.store(0, std::memory_order_relaxed);
    } else {
      --remaining_;
      if (t + tc_ < deps_.size() && --deps_[t + tc_] == 0) {
        ready_.push_back(t + tc_);
      }
      if (bj + 1 < tc_ && --deps_[t + 1] == 0) ready_.push_back(t + 1);
      // This thread takes one ready tile and each waiting one another;
      // the rest are spare. Published under mu_, so never after the
      // owner's loop has ended.
      const auto hands = static_cast<std::ptrdiff_t>(1 + waiting_);
      spare.store(static_cast<std::ptrdiff_t>(ready_.size()) - hands,
                  std::memory_order_relaxed);
      if (m_ != nullptr && spare.load(std::memory_order_relaxed) > 0) {
        m_->publish(*this);
      }
    }
    epoch_.fetch_add(1, std::memory_order_release);
  }

  rt::Machine* const m_;
  const std::size_t rows_, cols_, tile_, tc_;
  TileBody body_;

  std::mutex mu_;
  // Guarded by mu_: tile t = bi * tc_ + bj has deps_[t] unfinished
  // neighbours; ready_ holds unclaimed tiles whose deps_ reached zero.
  std::vector<std::uint8_t> deps_;
  std::vector<std::size_t> ready_;
  std::size_t remaining_;     // tiles not yet done
  std::size_t running_ = 0;   // claimed, body still running
  std::size_t waiting_ = 0;   // owner or helpers in await_tile
  bool failed_ = false;
  std::exception_ptr error_;
  /// Bumped after every tile; await_tile watches it.
  std::atomic<std::uint32_t> epoch_{0};
};

/// Wraps a cell body as a tile body: row-major cells within the tile.
template <class Body>
auto cell_tiles(Body body) {
  return [body = std::move(body)](std::size_t i0, std::size_t i1,
                                  std::size_t j0, std::size_t j1) mutable {
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t j = j0; j < j1; ++j) body(i, j);
    }
  };
}

}  // namespace detail

/// Runs body(i0, i1, j0, j1) once for each tile [i0, i1) x [j0, j1) of the
/// rows x cols grid; a tile runs after the tiles above and to its left.
/// The caller runs tiles itself and lets idle processors of `m` take
/// spare ready ones, or runs every tile when `m` is null. Returns when
/// every tile has run, or rethrows the first body exception once no tile
/// is running.
/// Safe inside a task of `m`: it waits only for its own tiles.
template <class TileBody>
void wavefront_tiles(rt::Machine* m, std::size_t rows, std::size_t cols,
                     TileBody body, std::size_t tile = kWavefrontTile) {
  if (rows == 0 || cols == 0) return;
  std::make_shared<detail::WaveTiles<TileBody>>(m, rows, cols, tile,
                                                std::move(body))
      ->run_owner();
}

/// Runs body(i, j) for every (i, j) in [0, rows) x [0, cols), respecting
/// wavefront dependencies: body(i,j) runs after body(i-1,j) and
/// body(i,j-1). Within a tile, cells run in row-major order. Blocks the
/// calling thread, which runs tiles itself; body exceptions propagate.
template <class Body>
void wavefront(rt::Machine& m, std::size_t rows, std::size_t cols,
               Body body, std::size_t tile = kWavefrontTile) {
  wavefront_tiles(&m, rows, cols, detail::cell_tiles(std::move(body)), tile);
}

/// Non-blocking wavefront: posts the owner to node 0 and returns a
/// completion variable (named "wavefront.done") that binds once every
/// tile has run. The supervised form in motifs/supervise.hpp wraps this;
/// body exceptions surface through wait_idle / wait_idle_for.
template <class Body>
rt::SVar<bool> wavefront_async(rt::Machine& m, std::size_t rows,
                               std::size_t cols, Body body,
                               std::size_t tile = kWavefrontTile) {
  rt::SVar<bool> done;
  if (rows == 0 || cols == 0) {
    done.bind(true);
    return done;
  }
  done.set_name("wavefront.done");
  auto tiles = detail::cell_tiles(std::move(body));
  auto st = std::make_shared<detail::WaveTiles<decltype(tiles)>>(
      &m, rows, cols, tile, std::move(tiles));
  m.post(0, [st, done]() mutable {
    st->run_owner();
    done.try_bind(true);  // a duplicated post finds every tile done
  });
  return done;
}

}  // namespace motif
