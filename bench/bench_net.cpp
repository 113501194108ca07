// Net-layer throughput: what does spanning processes actually cost?
//
// Cases, all 2-rank clusters pumping Post frames from rank 0 to rank 1:
//   LoopbackPosts — deterministic in-process transport (codec cost only)
//   TcpPosts      — real localhost sockets (codec + syscalls + coalescing)
//   LoopbackDistTreeReduce2 / TcpDistTreeReduce2 — the whole motif,
//     end-to-end, so the per-frame numbers have an application anchor.
//
// Reported per case: posts_per_s, bytes_per_s (wire bytes, length prefix
// included) from the receiving side's counters; the JSONL line carries
// them as the totals posts_total and bytes_total. The loopback/TCP gap is
// the transport tax; the codec is identical in both.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.hpp"

#include "motifs/dist_tree_reduce.hpp"
#include "net/cluster.hpp"
#include "net/transport.hpp"

namespace n = motif::net;
namespace rt = motif::rt;
using namespace std::chrono_literals;

namespace {

constexpr int kPostsPerIter = 20000;

/// A 2-rank cluster over either transport; rank 1 counts arrivals.
struct Pair {
  n::LoopbackHub hub{2};
  std::unique_ptr<n::Transport> tcp0, tcp1;
  std::vector<std::unique_ptr<n::Cluster>> cs;
  std::uint16_t h_sink = 0;
  std::atomic<std::uint64_t> received{0};

  /// `extra` runs per cluster after the sink handler is registered and
  /// before start() — registration order must match on every rank.
  explicit Pair(bool over_tcp,
                const std::function<void(n::Cluster&)>& extra = {}) {
    if (over_tcp) {
      // Rank 0 binds any free port; rank 1 dials the one it got.
      tcp0 = n::make_tcp_transport(0, {"127.0.0.1:0", "127.0.0.1:0"});
      tcp1 = n::make_tcp_transport(1, {tcp0->listen_address(), "127.0.0.1:0"});
    }
    for (std::uint32_t r = 0; r < 2; ++r) {
      n::ClusterConfig cfg;
      cfg.nodes_per_rank = 2;
      n::Transport& t =
          over_tcp ? (r == 0 ? *tcp0 : *tcp1) : hub.endpoint(r);
      cs.push_back(std::make_unique<n::Cluster>(t, cfg));
    }
    for (auto& c : cs) {
      h_sink = c->register_handler("bench.sink", [this](const auto&) {
        received.fetch_add(1, std::memory_order_relaxed);
      });
      if (extra) extra(*c);
    }
    if (over_tcp) {
      // TCP start() blocks on the connect handshake: bring rank 1 up
      // concurrently. (Loopback start is a no-op.)
      std::thread t([this] { cs[1]->start(); });
      cs[0]->start();
      t.join();
    } else {
      for (auto& c : cs) c->start();
    }
  }

  ~Pair() {
    for (auto& c : cs) c->shutdown();
  }
};

void run_posts(benchmark::State& state, bool over_tcp) {
  Pair pair(over_tcp);
  const auto payload = motif::term::Term::tuple(
      {motif::term::Term::integer(7), motif::term::Term::atom("bench"),
       motif::term::Term::str("sixteen byte pad")});
  std::uint64_t posts = 0;
  for (auto _ : state) {
    const std::uint64_t before = pair.received.load();
    for (int i = 0; i < kPostsPerIter; ++i) {
      pair.cs[0]->post(/*dst=*/2, pair.h_sink, payload);  // rank 1's node
    }
    // Settle: every post delivered before the iteration closes.
    while (pair.received.load(std::memory_order_relaxed) <
           before + kPostsPerIter) {
      std::this_thread::yield();
    }
    posts += kPostsPerIter;
  }
  const auto rx = pair.cs[1]->net_stats();
  state.counters["posts_per_s"] = benchmark::Counter(
      static_cast<double>(posts), benchmark::Counter::kIsRate);
  state.counters["bytes_per_s"] = benchmark::Counter(
      static_cast<double>(rx.rx_bytes), benchmark::Counter::kIsRate);
  state.counters["frame_bytes"] =
      posts > 0 ? static_cast<double>(rx.rx_bytes) /
                      static_cast<double>(rx.rx_frames)
                : 0.0;
}

void run_dist_tr2(benchmark::State& state, bool over_tcp) {
  std::vector<std::unique_ptr<motif::DistTreeReduce2>> trs;
  Pair pair(over_tcp, [&trs](n::Cluster& c) {
    trs.push_back(std::make_unique<motif::DistTreeReduce2>(c));
  });
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto r = trs[0]->run(/*depth=*/8, seed++, 60s);
    if (!r.ok) state.SkipWithError(r.outcome.to_string().c_str());
    benchmark::DoNotOptimize(r.value);
  }
  const auto s0 = pair.cs[0]->net_stats();
  const auto s1 = pair.cs[1]->net_stats();
  state.counters["posts_per_s"] = benchmark::Counter(
      static_cast<double>(s0.tx_frames + s1.tx_frames),
      benchmark::Counter::kIsRate);
  state.counters["bytes_per_s"] = benchmark::Counter(
      static_cast<double>(s0.tx_bytes + s1.tx_bytes),
      benchmark::Counter::kIsRate);
}

void BM_LoopbackPosts(benchmark::State& state) {
  run_posts(state, /*over_tcp=*/false);
  MOTIF_BENCH_REPORT(state);
}

void BM_TcpPosts(benchmark::State& state) {
  run_posts(state, /*over_tcp=*/true);
  MOTIF_BENCH_REPORT(state);
}

void BM_LoopbackDistTreeReduce2(benchmark::State& state) {
  run_dist_tr2(state, /*over_tcp=*/false);
  MOTIF_BENCH_REPORT(state);
}

void BM_TcpDistTreeReduce2(benchmark::State& state) {
  run_dist_tr2(state, /*over_tcp=*/true);
  MOTIF_BENCH_REPORT(state);
}

BENCHMARK(BM_LoopbackPosts)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TcpPosts)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoopbackDistTreeReduce2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TcpDistTreeReduce2)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
