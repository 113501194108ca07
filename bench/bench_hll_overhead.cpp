// Experiment E5 (DESIGN.md §4): the multilingual-approach claim — "it is
// rare that significant time is spent executing its [motif coordination]
// routines" when the computationally intensive components are low-level
// (Section 2.1).
//
// Workload: reduce a fixed balanced tree where every leaf performs `grain`
// units of low-level work (a hash-spin builtin / C++ loop). Coordination
// paths compared at identical total leaf work:
//   * native  — C++ Tree-Reduce-1 over the Machine
//   * interp  — the SAME algorithm written in the high-level language and
//               run by the concurrent-logic interpreter (reduce/eval with
//               @random, executing work(grain) at the leaves)
// Reported: wall time and the interp/native ratio as grain grows.
//
// Expected shape: at tiny grain the high-level coordination dominates
// (large ratio); as grain grows the ratio falls toward 1 — the paper's
// justification for implementing motifs in a high-level language.
//
// This bench doubles as the tracer's zero-overhead check: built with
// -DMOTIF_TRACING=OFF its native path contains no tracer hooks at all
// (compare BM_NativeTreeReduce against a MOTIF_TRACING=ON build with
// tracing inactive — the JSONL lines carry the numbers).
#include <benchmark/benchmark.h>

#include <functional>
#include <string>

#include "bench_report.hpp"
#include "interp/interp.hpp"
#include "motifs/tree.hpp"
#include "motifs/tree_reduce.hpp"
#include "term/parser.hpp"
#include "term/subst.hpp"

namespace m = motif;
namespace rt = motif::rt;
namespace in = motif::interp;

namespace {

constexpr std::size_t kLeaves = 128;

std::uint64_t spin(std::uint64_t units) {
  volatile std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t i = 0; i < units; ++i) {
    h = (h ^ i) * 0x100000001b3ull;
  }
  return h;
}

void BM_NativeTreeReduce(benchmark::State& state) {
  const auto grain = static_cast<std::uint64_t>(state.range(0));
  auto tree = m::balanced_tree<long, char>(
      kLeaves, [](std::size_t) { return 1L; }, '+');
  auto eval = [grain](const char&, const long& a, const long& b) {
    spin(grain);
    return a + b;
  };
  // One Machine for every iteration: its set-up (in a tracing build, the
  // per-node trace rings) is not the per-reduction cost this compares.
  rt::Machine mach({.nodes = 4, .workers = 2, .seed = 1});
  for (auto _ : state) {
    long v = m::tree_reduce1<long, char>(mach, tree, eval);
    benchmark::DoNotOptimize(v);
    if (v != static_cast<long>(kLeaves)) state.SkipWithError("bad sum");
  }
  state.counters["grain"] = static_cast<double>(grain);
  state.counters["tracing_compiled"] =
      rt::Machine::trace_compiled ? 1.0 : 0.0;
  motif::bench::report_case(state, "bench_hll_overhead", "native");
}

std::string interp_tree(std::size_t leaves) {
  std::function<std::string(std::size_t)> build =
      [&](std::size_t n) -> std::string {
    if (n == 1) return "leaf(1)";
    return "tree('+'," + build(n / 2) + "," + build(n - n / 2) + ")";
  };
  return build(leaves);
}

void BM_InterpTreeReduce(benchmark::State& state) {
  const auto grain = static_cast<std::uint64_t>(state.range(0));
  // The high-level program: eval spins via the work/1 builtin (the
  // low-level component), coordination is pure Strand-style code.
  const std::string src =
      "eval('+',L,R,Value) :- work(" + std::to_string(grain) +
      "), Value is L + R.\n"
      "reduce(tree(V,L,R),Value) :- reduce(R,RV)@random, reduce(L,LV), "
      "eval(V,LV,RV,Value).\n"
      "reduce(leaf(L),Value) :- work(" + std::to_string(grain) +
      "), Value := L.\n";
  // Parsed once, and one interpreter (and Machine) for every iteration:
  // parsing the 128-leaf goal text and setting up are not the
  // coordination cost this compares. Each run binds its goal's
  // variables, so it gets a fresh copy, made outside the timing.
  const motif::term::Term goal_template =
      motif::term::parse_term("reduce(" + interp_tree(kLeaves) + ",V)");
  in::InterpOptions opts;
  opts.nodes = 4;
  opts.workers = 2;
  in::Interp interp(motif::term::Program::parse(src), opts);
  for (auto _ : state) {
    state.PauseTiming();
    motif::term::Bindings fresh;
    motif::term::Term goal = motif::term::rename_fresh(goal_template, fresh);
    state.ResumeTiming();
    in::RunResult r = interp.run(goal);
    if (goal.arg(1).int_value() != static_cast<long>(kLeaves)) {
      state.SkipWithError("bad sum");
    }
    benchmark::DoNotOptimize(r.reductions);
  }
  state.counters["grain"] = static_cast<double>(grain);
  motif::bench::report_case(state, "bench_hll_overhead", "interp");
}

void args(benchmark::internal::Benchmark* b) {
  // grain = spin units per leaf/eval: ~ns each, so 1e2..1e6 spans "pure
  // coordination" to "computation dominates".
  for (long grain : {0L, 100L, 1000L, 10000L, 100000L, 1000000L}) {
    b->Args({grain});
  }
  b->Unit(benchmark::kMillisecond)->MinTime(0.02);
}

BENCHMARK(BM_NativeTreeReduce)->Apply(args);
BENCHMARK(BM_InterpTreeReduce)->Apply(args);

}  // namespace

BENCHMARK_MAIN();
