// Experiment E10 (DESIGN.md §4): the case study end-to-end — multiple
// sequence alignment of synthetic RNA families by guide-tree reduction
// (Section 3), Tree-Reduce-1 vs Tree-Reduce-2.
//
// Series: family size x root sequence length. Reported: wall time, peak
// tracked bytes (profiles + DP intermediates live at once), peak
// initiated evaluations, and alignment quality (sum-of-pairs per column,
// identical across schedules — the motifs change the schedule, never the
// answer).
//
// Each case builds its Machine before timing and runs untimed alignments
// for a warm-up second (thread bring-up and a fresh Machine's first
// second are not its steady state), then times kReps alignments and
// reports their median. The Sweep cases repeat Sequential and TR2 at
// W = 1…nproc workers and report speedup and efficiency against W = 1,
// with the scheduler's steals and parks per alignment.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_report.hpp"

#include "align/align.hpp"
#include "runtime/metrics.hpp"

namespace al = motif::align;
namespace rt = motif::rt;

namespace {

constexpr int kReps = 5;
constexpr double kWarmupS = 1.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median alignment time of each sweep's W = 1 case, by (schedule, taxa,
/// length), for the speedup of the W > 1 cases that follow it.
std::map<std::tuple<int, std::int64_t, std::int64_t>, double>& w1_ms() {
  static std::map<std::tuple<int, std::int64_t, std::int64_t>, double> m;
  return m;
}

/// Runs one case; returns the median alignment time in ms.
double run_case(benchmark::State& state, al::MsaSchedule sched,
                std::uint32_t workers) {
  const auto taxa = static_cast<std::size_t>(state.range(0));
  const auto len = static_cast<std::size_t>(state.range(1));
  auto fam = al::synthetic_family(taxa, len, 77);
  rt::Machine mach({.nodes = 8, .workers = workers, .seed = 7});
  const auto align = [&] {
    return al::progressive_msa(mach, fam.sequences, fam.guide, sched);
  };
  for (const auto t0 = std::chrono::steady_clock::now();
       seconds_since(t0) < kWarmupS;) {
    align();
  }
  std::vector<double> ms;
  double score = 0;
  std::int64_t peak = 0, evals = 0;
  std::size_t columns = 0;
  const rt::SchedStats s0 = mach.load_summary().sched;
  for (auto _ : state) {
    ms.clear();
    for (int rep = 0; rep < kReps; ++rep) {
      rt::live_bytes().reset();
      rt::active_evals().reset();
      const auto t0 = std::chrono::steady_clock::now();
      auto r = align();
      ms.push_back(seconds_since(t0) * 1e3);
      benchmark::DoNotOptimize(r.profile.length());
      score = r.sum_of_pairs_score;
      columns = r.profile.length();
      peak = std::max(peak, rt::live_bytes().peak());
      evals = std::max(evals, rt::active_evals().peak());
    }
    std::sort(ms.begin(), ms.end());
    state.SetIterationTime(ms[kReps / 2] / 1e3);
  }
  const rt::SchedStats s1 = mach.load_summary().sched;
  state.counters["taxa"] = static_cast<double>(taxa);
  state.counters["length"] = static_cast<double>(len);
  state.counters["ms_median"] = ms[kReps / 2];
  state.counters["ms_min"] = ms.front();
  state.counters["ms_max"] = ms.back();
  state.counters["peak_MiB"] = static_cast<double>(peak) / (1 << 20);
  state.counters["peak_evals"] = static_cast<double>(evals);
  state.counters["sp_per_col"] = score / static_cast<double>(columns);
  state.counters["columns"] = static_cast<double>(columns);
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["steals"] = static_cast<double>(s1.steals - s0.steals) / kReps;
  state.counters["parks"] = static_cast<double>(s1.parks - s0.parks) / kReps;
  return ms[kReps / 2];
}

/// One worker per core, less one for the calling thread.
std::uint32_t default_workers() {
  return std::max(2u, std::thread::hardware_concurrency()) - 1;
}

void BM_MSA_Sequential(benchmark::State& state) {
  run_case(state, al::MsaSchedule::Sequential, default_workers());
  MOTIF_BENCH_REPORT(state);
}
void BM_MSA_TreeReduce1(benchmark::State& state) {
  run_case(state, al::MsaSchedule::TreeReduce1, default_workers());
  MOTIF_BENCH_REPORT(state);
}
void BM_MSA_TreeReduce2(benchmark::State& state) {
  run_case(state, al::MsaSchedule::TreeReduce2, default_workers());
  MOTIF_BENCH_REPORT(state);
}

void sweep(benchmark::State& state, al::MsaSchedule sched) {
  const auto w = static_cast<std::uint32_t>(state.range(2));
  const double ms = run_case(state, sched, w);
  const auto key =
      std::make_tuple(static_cast<int>(sched), state.range(0), state.range(1));
  if (w == 1) w1_ms()[key] = ms;
  const auto base = w1_ms().find(key);
  const double speedup = base == w1_ms().end() ? 0.0 : base->second / ms;
  state.counters["speedup"] = speedup;
  state.counters["efficiency"] = speedup / w;
}

void BM_MSA_Sweep_Sequential(benchmark::State& state) {
  sweep(state, al::MsaSchedule::Sequential);
  MOTIF_BENCH_REPORT(state);
}
void BM_MSA_Sweep_TreeReduce2(benchmark::State& state) {
  sweep(state, al::MsaSchedule::TreeReduce2);
  MOTIF_BENCH_REPORT(state);
}

void args(benchmark::internal::Benchmark* b) {
  b->Args({16, 100})
      ->Args({64, 100})
      ->Args({256, 100})
      ->Args({32, 400})
      ->Args({64, 800})
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1)
      ->UseManualTime();
}

void sweep_args(benchmark::internal::Benchmark* b) {
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int len : {200, 800}) {
    for (int w = 1; w <= cores; ++w) b->Args({64, len, w});
  }
  b->Unit(benchmark::kMillisecond)->Iterations(1)->UseManualTime();
}

BENCHMARK(BM_MSA_Sequential)->Apply(args);
BENCHMARK(BM_MSA_TreeReduce1)->Apply(args);
BENCHMARK(BM_MSA_TreeReduce2)->Apply(args);
BENCHMARK(BM_MSA_Sweep_Sequential)->Apply(sweep_args);
BENCHMARK(BM_MSA_Sweep_TreeReduce2)->Apply(sweep_args);

}  // namespace

BENCHMARK_MAIN();
