// Experiment E3 (DESIGN.md §4): the Tree-Reduce-2 labelling guarantees
// that "an interprocessor communication is required for at most one of
// each node's offspring values" (Section 3.5).
//
// Series: random trees x processors {2..64}; reported per schedule:
//   remote_frac      — fraction of value deliveries crossing processors
//   remote_per_node  — remote deliveries per internal node (TR2 bound: 1)
//   msgs_per_remote_value — TR2 only: value batches per remote delivery
//                      (a task sends one batch per destination, so a
//                      batch may carry several values)
// Schedules: TR2 with the paper labelling, TR2 with independent random
// labels (ablation), and TR1's machine-level remote messages for scale.
//
// Expected shape: paper labelling keeps remote_per_node <= 1 at every P;
// the ablation approaches 2*(1-1/P).
#include <benchmark/benchmark.h>

#include "bench_report.hpp"

#include "motifs/tree.hpp"
#include "motifs/tree_reduce.hpp"

namespace m = motif;
namespace rt = motif::rt;

namespace {

using IntTree = m::Tree<long, char>;

IntTree::Ptr make_tree(std::size_t leaves) {
  rt::Rng rng(4321);
  return m::random_tree<long, char>(
      rng, leaves, [](rt::Rng& r) { return long(r.below(10)); },
      [](rt::Rng&) { return '+'; });
}

long add(const char&, const long& a, const long& b) { return a + b; }

void run_tr2(benchmark::State& state, m::LabelPolicy policy) {
  const auto leaves = static_cast<std::size_t>(state.range(0));
  const auto procs = static_cast<std::uint32_t>(state.range(1));
  auto tree = make_tree(leaves);
  const double internal = static_cast<double>(leaves - 1);
  m::TR2Stats stats;
  for (auto _ : state) {
    rt::Machine mach({.nodes = procs, .workers = 2, .seed = 5});
    benchmark::DoNotOptimize(
        m::tree_reduce2<long, char>(mach, tree, add, &stats, policy));
  }
  const double total =
      static_cast<double>(stats.local_values + stats.remote_values);
  state.counters["remote_frac"] =
      total > 0 ? static_cast<double>(stats.remote_values) / total : 0.0;
  state.counters["remote_per_node"] =
      static_cast<double>(stats.remote_values) / internal;
  state.counters["msgs_per_remote_value"] =
      stats.remote_values > 0 ? static_cast<double>(stats.value_messages) /
                                    static_cast<double>(stats.remote_values)
                              : 0.0;
}

void BM_TR2_PaperLabels(benchmark::State& state) {
  run_tr2(state, m::LabelPolicy::Paper);
  MOTIF_BENCH_REPORT(state);
}

void BM_TR2_RandomLabels(benchmark::State& state) {
  run_tr2(state, m::LabelPolicy::IndependentRandom);
  MOTIF_BENCH_REPORT(state);
}

void BM_TR1_RemoteMessages(benchmark::State& state) {
  const auto leaves = static_cast<std::size_t>(state.range(0));
  const auto procs = static_cast<std::uint32_t>(state.range(1));
  auto tree = make_tree(leaves);
  std::uint64_t remote = 0, total = 0;
  for (auto _ : state) {
    rt::Machine mach({.nodes = procs, .workers = 2, .seed = 5});
    benchmark::DoNotOptimize(m::tree_reduce1<long, char>(mach, tree, add));
    auto s = mach.load_summary();
    remote = s.remote_msgs;
    total = s.remote_msgs + s.local_msgs;
  }
  state.counters["remote_frac"] =
      total > 0 ? static_cast<double>(remote) / static_cast<double>(total)
                : 0.0;
  state.counters["remote_per_node"] =
      static_cast<double>(remote) / static_cast<double>(leaves - 1);
  MOTIF_BENCH_REPORT(state);
}

void args(benchmark::internal::Benchmark* b) {
  for (int leaves : {1024, 8192}) {
    for (int procs : {2, 4, 8, 16, 32, 64}) {
      b->Args({leaves, procs});
    }
  }
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_TR2_PaperLabels)->Apply(args);
BENCHMARK(BM_TR2_RandomLabels)->Apply(args);
BENCHMARK(BM_TR1_RemoteMessages)->Apply(args);

}  // namespace

BENCHMARK_MAIN();
