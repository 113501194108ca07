// Figure F1 (DESIGN.md §4): the producer/consumer program of Figure 1 —
// message rate of the synchronously-coupled pair, in three realisations:
//   * the verbatim high-level program on the interpreter
//   * Strand-style streams (stream.hpp) between two OS threads
//   * the native pipeline motif on Machine nodes (capacity 1 = the sync
//     ack), plus a capacity-64 two-stage row that exercises ack batching
// All three time wall clock: the work runs on threads other than the
// benchmark's own, so its CPU time says nothing.
#include <benchmark/benchmark.h>

#include "bench_report.hpp"

#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>

#include "interp/interp.hpp"
#include "motifs/pipeline.hpp"
#include "runtime/machine.hpp"
#include "runtime/stream.hpp"

namespace in = motif::interp;
namespace rt = motif::rt;
using Clock = std::chrono::steady_clock;

namespace {

void BM_InterpFigure1(benchmark::State& state) {
  const auto n = static_cast<long>(state.range(0));
  auto program = motif::term::Program::parse(R"(
    go(N) :- producer(N,Xs,sync), consumer(Xs).
    producer(N,Xs,sync) :- N > 0 |
        Xs := [X|Xs1], N1 is N - 1, producer(N1,Xs1,X).
    producer(0,Xs,_) :- Xs := [].
    consumer([X|Xs]) :- X := sync, consumer(Xs).
    consumer([]).
  )");
  for (auto _ : state) {
    in::InterpOptions opts;
    opts.nodes = 2;
    opts.workers = 2;
    in::Interp interp(program, opts);
    auto [goal, r] = interp.run_query("go(" + std::to_string(n) + ")");
    if (r.deadlocked()) state.SkipWithError("deadlock");
    benchmark::DoNotOptimize(r.reductions);
  }
  state.SetItemsProcessed(state.iterations() * n);
  MOTIF_BENCH_REPORT(state);
}

void BM_StreamProducerConsumer(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    rt::Stream<int> head;
    std::thread producer([head, n]() mutable {
      rt::Stream<int> t = head;
      for (int i = 0; i < n; ++i) t = t.push(i);
      t.close();
    });
    long sum = 0;
    rt::Stream<int> cur = head;
    while (auto nx = cur.next_blocking()) {
      sum += nx->first;
      cur = nx->second;
    }
    producer.join();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
  MOTIF_BENCH_REPORT(state);
}

// Args: items, capacity, stages. One node and one worker per step, so
// every step can run at once; the machine outlives the iterations.
void BM_Pipeline(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto capacity = static_cast<std::size_t>(state.range(1));
  const auto stages = state.range(2);
  const auto steps = static_cast<std::uint32_t>(stages + 2);
  rt::Machine m({.nodes = steps, .workers = steps});
  double secs = 0.0;
  for (auto _ : state) {
    motif::Pipeline<int> p(m, capacity);
    int next = 0;
    long sum = 0;
    p.source([&]() -> std::optional<int> {
       if (next >= n) return std::nullopt;
       return next++;
     }).sink([&](int v) { sum += v; });
    for (std::int64_t s = 0; s < stages; ++s) {
      p.stage([](int v) { return v + 1; });
    }
    const auto t0 = Clock::now();
    p.run();
    secs += std::chrono::duration<double>(Clock::now() - t0).count();
    benchmark::DoNotOptimize(sum);
  }
  const double items =
      static_cast<double>(n) * static_cast<double>(state.iterations());
  state.counters["ns_per_item"] = secs * 1e9 / items;
  state.counters["items"] = static_cast<double>(n);
  state.counters["capacity"] = static_cast<double>(capacity);
  state.counters["stages"] = static_cast<double>(stages);
  state.SetItemsProcessed(state.iterations() * n);
  MOTIF_BENCH_REPORT(state);
}

}  // namespace

BENCHMARK(BM_InterpFigure1)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond)->MinTime(0.02)->UseRealTime();
BENCHMARK(BM_StreamProducerConsumer)->Arg(1000)->Arg(100000)
    ->Unit(benchmark::kMillisecond)->MinTime(0.02)->UseRealTime();
BENCHMARK(BM_Pipeline)
    ->ArgNames({"items", "capacity", "stages"})
    ->Args({1000, 1, 0})
    ->Args({100000, 1, 0})
    ->Args({20000, 64, 2})
    ->Unit(benchmark::kMillisecond)->MinTime(0.02)->UseRealTime();

BENCHMARK_MAIN();
