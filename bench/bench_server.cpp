// Experiment E9 (DESIGN.md §4): the Server motif scales — message
// throughput over the fully-connected network (Figure 3/4) and halt
// propagation cost. The paper's short circuit (Section 3.3) is the
// Terminate transformation (transform/terminate.hpp).
#include <benchmark/benchmark.h>

#include "bench_report.hpp"

#include <atomic>

#include "motifs/server.hpp"

namespace m = motif;
namespace rt = motif::rt;

namespace {

void BM_ServerThroughput(benchmark::State& state) {
  // Each received message triggers `fan` new messages until a hop budget
  // is spent: a message flood across all servers.
  const auto servers = static_cast<std::uint32_t>(state.range(0));
  constexpr int kHops = 20000;
  std::uint64_t handled = 0;
  for (auto _ : state) {
    rt::Machine mach({.nodes = servers, .workers = 2, .seed = 61});
    std::atomic<int> budget{kHops};
    m::ServerNetwork<int> net(mach, servers, [&](auto& ctx, int) {
      const int left = budget.fetch_sub(1) - 1;
      if (left <= 0) {
        if (left == 0) ctx.halt();
        return;
      }
      ctx.send(static_cast<std::uint32_t>(ctx.rng().below(ctx.nodes())) + 1,
               0);
    });
    net.start(1, 0);
    net.wait();
    handled = net.messages_handled();
  }
  state.SetItemsProcessed(state.iterations() * handled);
  state.counters["servers"] = static_cast<double>(servers);
  MOTIF_BENCH_REPORT(state);
}

void BM_HaltLatency(benchmark::State& state) {
  // Time from first message to fully-halted network, with all servers
  // busy self-messaging.
  const auto servers = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    rt::Machine mach({.nodes = servers, .workers = 2, .seed = 67});
    m::ServerNetwork<int> net(mach, servers, [&](auto& ctx, int k) {
      if (ctx.self() == 1 && k == 0) {
        ctx.halt();
        return;
      }
      ctx.send(ctx.self(), k - 1);
    });
    for (std::uint32_t s = 2; s <= servers; ++s) {
      net.start(s, 1 << 20);  // effectively endless until halt
    }
    net.start(1, 0);
    net.wait();
  }
  MOTIF_BENCH_REPORT(state);
}

}  // namespace

BENCHMARK(BM_ServerThroughput)->Arg(2)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_HaltLatency)->Arg(4)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

BENCHMARK_MAIN();
