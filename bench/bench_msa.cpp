// Experiment E10 (DESIGN.md §4): the case study end-to-end — multiple
// sequence alignment of synthetic RNA families by guide-tree reduction
// (Section 3), Tree-Reduce-1 vs Tree-Reduce-2.
//
// Series: family size x root sequence length. Reported: wall time, peak
// tracked bytes (profiles + DP intermediates live at once), peak
// initiated evaluations, and alignment quality (sum-of-pairs per column,
// identical across schedules — the motifs change the schedule, never the
// answer).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>

#include "bench_report.hpp"

#include "align/align.hpp"
#include "runtime/metrics.hpp"

namespace al = motif::align;
namespace rt = motif::rt;

namespace {

void run_case(benchmark::State& state, al::MsaSchedule sched) {
  // One worker per core, less one for the calling thread.
  const std::uint32_t workers =
      std::max(2u, std::thread::hardware_concurrency()) - 1;
  const auto taxa = static_cast<std::size_t>(state.range(0));
  const auto len = static_cast<std::size_t>(state.range(1));
  auto fam = al::synthetic_family(taxa, len, 77);
  double score = 0;
  std::int64_t peak = 0, evals = 0;
  std::size_t columns = 0;
  for (auto _ : state) {
    rt::live_bytes().reset();
    rt::active_evals().reset();
    rt::Machine mach({.nodes = 8, .workers = workers, .seed = 7});
    auto r = al::progressive_msa(mach, fam.sequences, fam.guide, sched);
    benchmark::DoNotOptimize(r.profile.length());
    score = r.sum_of_pairs_score;
    columns = r.profile.length();
    peak = rt::live_bytes().peak();
    evals = rt::active_evals().peak();
  }
  state.counters["peak_MiB"] = static_cast<double>(peak) / (1 << 20);
  state.counters["peak_evals"] = static_cast<double>(evals);
  state.counters["sp_per_col"] = score / static_cast<double>(columns);
  state.counters["columns"] = static_cast<double>(columns);
  state.counters["workers"] = static_cast<double>(workers);
}

void BM_MSA_Sequential(benchmark::State& state) {
  run_case(state, al::MsaSchedule::Sequential);
  MOTIF_BENCH_REPORT(state);
}
void BM_MSA_TreeReduce1(benchmark::State& state) {
  run_case(state, al::MsaSchedule::TreeReduce1);
  MOTIF_BENCH_REPORT(state);
}
void BM_MSA_TreeReduce2(benchmark::State& state) {
  run_case(state, al::MsaSchedule::TreeReduce2);
  MOTIF_BENCH_REPORT(state);
}

void args(benchmark::internal::Benchmark* b) {
  b->Args({16, 100})
      ->Args({64, 100})
      ->Args({256, 100})
      ->Args({32, 400})
      ->Args({64, 800})
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
}

BENCHMARK(BM_MSA_Sequential)->Apply(args);
BENCHMARK(BM_MSA_TreeReduce1)->Apply(args);
BENCHMARK(BM_MSA_TreeReduce2)->Apply(args);

}  // namespace

BENCHMARK_MAIN();
