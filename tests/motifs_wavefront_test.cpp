// Wavefront motif: dependency correctness, tiling edge cases, and the
// Needleman-Wunsch kernel expressed as a wavefront client.
#include "motifs/wavefront.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "align/nw.hpp"
#include "align/sequence.hpp"

namespace m = motif;
namespace rt = motif::rt;
namespace al = motif::align;

TEST(Wavefront, ComputesPascalTriangle) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  constexpr std::size_t N = 20;
  std::vector<std::uint64_t> grid(N * N, 0);
  m::wavefront(mach, N, N, [&](std::size_t i, std::size_t j) {
    if (i == 0 || j == 0) {
      grid[i * N + j] = 1;
    } else {
      grid[i * N + j] = grid[(i - 1) * N + j] + grid[i * N + (j - 1)];
    }
  });
  // grid[i][j] = C(i+j, i).
  EXPECT_EQ(grid[1 * N + 1], 2u);
  EXPECT_EQ(grid[2 * N + 2], 6u);
  EXPECT_EQ(grid[3 * N + 3], 20u);
  EXPECT_EQ(grid[5 * N + 5], 252u);
}

TEST(Wavefront, EveryCellExactlyOnce) {
  rt::Machine mach({.nodes = 8, .workers = 2});
  constexpr std::size_t R = 37, C = 53;  // deliberately non-tile-aligned
  std::vector<std::atomic<int>> hits(R * C);
  m::wavefront(
      mach, R, C,
      [&](std::size_t i, std::size_t j) { hits[i * C + j].fetch_add(1); },
      /*tile=*/8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Wavefront, DependenciesRespected) {
  rt::Machine mach({.nodes = 8, .workers = 2});
  constexpr std::size_t N = 24;
  std::vector<std::atomic<int>> doneflag(N * N);
  std::atomic<bool> violated{false};
  m::wavefront(
      mach, N, N,
      [&](std::size_t i, std::size_t j) {
        if (i > 0 && doneflag[(i - 1) * N + j].load() == 0) violated = true;
        if (j > 0 && doneflag[i * N + (j - 1)].load() == 0) violated = true;
        doneflag[i * N + j].store(1);
      },
      /*tile=*/4);
  EXPECT_FALSE(violated.load());
}

TEST(Wavefront, DegenerateShapes) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  int count = 0;
  m::wavefront(mach, 1, 1, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
  count = 0;
  m::wavefront(mach, 1, 100,
               [&](std::size_t, std::size_t) { ++count; }, 16);
  EXPECT_EQ(count, 100);
  count = 0;
  m::wavefront(mach, 100, 1,
               [&](std::size_t, std::size_t) { ++count; }, 16);
  EXPECT_EQ(count, 100);
  m::wavefront(mach, 0, 50, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(Wavefront, BodyExceptionPropagates) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  EXPECT_THROW(m::wavefront(mach, 16, 16,
                            [&](std::size_t i, std::size_t j) {
                              if (i == 7 && j == 9) {
                                throw std::runtime_error("dp");
                              }
                            },
                            4),
               std::runtime_error);
}

TEST(Wavefront, RunsInsideATaskAndWaitsOnlyForItsOwnTiles) {
  // Node 1 holds a worker until the wavefront on node 0 has returned, so
  // a wavefront that waited for the whole machine would never return.
  rt::Machine mach({.nodes = 4, .workers = 2});
  constexpr std::size_t N = 200;
  std::vector<std::uint64_t> grid(N * N, 0);
  std::atomic<bool> wave_returned{false}, node1_saw_return{false};
  mach.post(1, [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!wave_returned.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    node1_saw_return = wave_returned.load();
  });
  mach.post(0, [&] {
    m::wavefront(
        mach, N, N,
        [&](std::size_t i, std::size_t j) {
          grid[i * N + j] = (i == 0 || j == 0)
                                ? 1
                                : (grid[(i - 1) * N + j] +
                                   grid[i * N + (j - 1)]) % 1000003;
        },
        /*tile=*/16);
    wave_returned = true;
  });
  mach.wait_idle();
  EXPECT_TRUE(node1_saw_return.load());
  EXPECT_EQ(grid[1 * N + 1], 2u);
  EXPECT_EQ(grid[5 * N + 5], 252u);
}

TEST(Wavefront, IdleProcessorsHelpWithTiles) {
  // The caller is not a machine thread, so a tile that runs on a node was
  // taken by a helper.
  rt::Machine mach({.nodes = 4, .workers = 4});
  std::atomic<int> tiles{0}, helped{0};
  m::wavefront_tiles(
      &mach, 8 * 16, 8 * 16,
      [&](std::size_t, std::size_t, std::size_t, std::size_t) {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(200);
        while (std::chrono::steady_clock::now() < until) {
        }
        ++tiles;
        if (rt::Machine::current_node() != rt::kNoNode) ++helped;
      },
      /*tile=*/16);
  EXPECT_EQ(tiles.load(), 64);
  EXPECT_GT(helped.load(), 0);
}

TEST(Wavefront, ThrowingTileLeavesTheOfferBoardEmpty) {
  // After the first tile two are ready and the caller takes one, so the
  // run is on the offer board from then on. A thrown tile ends the run,
  // and the board must not keep the engine that is gone.
  rt::Machine mach({.nodes = 4, .workers = 2});
  std::atomic<bool> on_board{false};
  EXPECT_THROW(m::wavefront_tiles(
                   &mach, 8 * 16, 8 * 16,
                   [&](std::size_t i0, std::size_t, std::size_t j0,
                       std::size_t) {
                     if (mach.offers() > 0) on_board = true;
                     if (i0 == 4 * 16 && j0 == 4 * 16) {
                       throw std::runtime_error("tile");
                     }
                   },
                   /*tile=*/16),
               std::runtime_error);
  EXPECT_TRUE(on_board.load());
  EXPECT_EQ(mach.offers(), 0u);
}

TEST(Wavefront, CallerAloneRunsEveryTileInDependencyOrder) {
  std::vector<int> done(5 * 7, 0);
  bool violated = false;
  const auto self = std::this_thread::get_id();
  m::wavefront_tiles(
      nullptr, 5 * 8 - 3, 7 * 8,
      [&](std::size_t i0, std::size_t, std::size_t j0, std::size_t) {
        const std::size_t bi = i0 / 8, bj = j0 / 8;
        if (bi > 0 && done[(bi - 1) * 7 + bj] == 0) violated = true;
        if (bj > 0 && done[bi * 7 + bj - 1] == 0) violated = true;
        if (std::this_thread::get_id() != self) violated = true;
        ++done[bi * 7 + bj];
      },
      /*tile=*/8);
  EXPECT_FALSE(violated);
  for (int d : done) EXPECT_EQ(d, 1);
}

TEST(WavefrontNW, MatchesSequentialScore) {
  rt::Machine mach({.nodes = 8, .workers = 2});
  rt::Rng rng(77);
  for (int round = 0; round < 5; ++round) {
    auto a = al::random_sequence(rng, 60 + rng.below(120));
    auto b = al::evolve(a, 5.0, {}, rng);
    EXPECT_EQ(al::nw_score_wavefront(mach, a, b), al::nw_score(a, b))
        << round;
  }
}

TEST(WavefrontNW, EmptySequences) {
  rt::Machine mach({.nodes = 2, .workers = 2});
  EXPECT_EQ(al::nw_score_wavefront(mach, "", "ACG"), -6);
  EXPECT_EQ(al::nw_score_wavefront(mach, "ACG", ""), -6);
  EXPECT_EQ(al::nw_score_wavefront(mach, "", ""), 0);
}

TEST(WavefrontNW, IdenticalLongSequences) {
  rt::Machine mach({.nodes = 8, .workers = 2});
  rt::Rng rng(5);
  auto a = al::random_sequence(rng, 500);
  EXPECT_EQ(al::nw_score_wavefront(mach, a, a),
            static_cast<std::int32_t>(a.size()) * 2);
}
