// Scheduler-core microbench (DESIGN.md §10): the per-message cost of the
// runtime substrate itself, independent of any motif.
//
// The paper's motifs only pay off if the machine's post()/dispatch path is
// cheap relative to the node evaluation it carries — Tree-Reduce-2's
// one-message-per-node discipline and the Scheduler motif's manager
// hotspot (E7) are pure post traffic. Cases:
//
//   LocalPostChain       — latency: a single node re-posting its own
//                          continuation (the SVar/when_bound pattern); the
//                          payload is sized past std::function's 16-byte
//                          SBO so the old Task type heap-allocates here.
//   CrossPostThroughput  — tokens hopping a ring of nodes, sweeping the
//                          worker count {2,4,8}; every hop is a remote
//                          post through a node mailbox. The acceptance
//                          metric for the lock-free core: posts_per_sec
//                          at 8 workers, before vs after.
//   FanOutFanIn          — a manager node scattering to every other node
//                          and gathering acks, repeated for R rounds: the
//                          E7 hotspot shape (one mailbox absorbing
//                          many concurrent producers).
//   TR2ZeroGrain/W       — Tree-Reduce-2 summing a balanced 65,536-leaf
//                          tree on one reused Machine{16 nodes, W
//                          workers}, W = 1…nproc: a motif whose time is
//                          all post, steal and park. Reports ns_per_leaf,
//                          tasks_per_job, steals and parks per job, and
//                          the messages behind them (value_messages,
//                          remote_values, and the drains that delivered
//                          the batches).
//   LabelAll             — TR2ZeroGrain's tree labelled in full on one
//                          thread (caller's walk plus every processor's,
//                          16 processors, as DistTreeReduce2's ranks do).
//   ReduceSequential     — the sequential oracle over the same tree.
//                          Both report ns_per_leaf: the walk cost under
//                          TR2ZeroGrain that is not post, steal or park.
//
// Each case reports posts_per_sec (and the scheduler substrate counters
// once the machine exposes them) as JSONL via bench_report.hpp; the
// before/after trajectory lives in bench/baselines/BENCH_sched_core.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include "bench_report.hpp"

#include "motifs/tree.hpp"
#include "motifs/tree_reduce.hpp"
#include "runtime/machine.hpp"

namespace rt = motif::rt;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// True when the task type keeps a callable of type D out of the heap.
// Trivially true for the pre-rework std::function core (which has no
// stores_inline and heap-allocates these payloads by design — that cost
// is part of what the before/after comparison measures).
template <class D, class T = rt::Task>
constexpr bool posts_inline() {
  if constexpr (requires { T::template stores_inline<D>(); }) {
    return T::template stores_inline<D>();
  } else {
    return true;
  }
}

// Detection idiom so the binary also builds against the pre-rework core
// (no sched_stats) for before/after interleaved runs.
template <typename M>
void report_sched_stats(benchmark::State& state, M& m) {
  if constexpr (requires { m.sched_stats(); }) {
    const auto s = m.sched_stats();
    state.counters["steals"] += static_cast<double>(s.steals);
    state.counters["parks"] += static_cast<double>(s.parks);
    state.counters["mailbox_fast_hits"] +=
        static_cast<double>(s.mailbox_fast_hits);
    state.counters["injects"] += static_cast<double>(s.injects);
  }
}

// Payload pushing the closure past std::function's small-buffer limit
// (libstdc++: 16 bytes): the size class of a typical bound continuation
// (callable + value + machine pointer). rt::TaskFn's inline buffer must
// hold it without touching the heap — the static_asserts below each
// closure type keep that true (it silently regressed once: the closures
// are 56 bytes and the original inline buffer was 48).
struct Pad40 {
  char bytes[40] = {};
};

// --- LocalPostChain --------------------------------------------------------

struct ChainStep {
  rt::Machine* m;
  std::atomic<std::int64_t>* left;
  Pad40 pad;
  void operator()() const {
    if (left->fetch_sub(1, std::memory_order_relaxed) > 1) {
      m->post(0, ChainStep{m, left, pad});
    }
  }
};

void BM_LocalPostChain(benchmark::State& state) {
  const std::int64_t kPosts = 200000;
  double secs = 0.0;
  for (auto _ : state) {
    rt::Machine m({.nodes = 1, .workers = 1});
    std::atomic<std::int64_t> left{kPosts};
    const auto t0 = std::chrono::steady_clock::now();
    m.post(0, ChainStep{&m, &left, {}});
    m.wait_idle();
    secs += seconds_since(t0);
  }
  const double total =
      static_cast<double>(kPosts) * static_cast<double>(state.iterations());
  state.counters["posts_per_sec"] = total / secs;
  state.counters["ns_per_post"] = secs * 1e9 / total;
  MOTIF_BENCH_REPORT(state);
}

static_assert(posts_inline<ChainStep>(),
              "the reference continuation must fit TaskFn inline");

// --- CrossPostThroughput ---------------------------------------------------

// Each token carries its own remaining-hop budget: a shared countdown
// atomic would put one contended fetch_sub in every hop and measure
// that, not the post path. Termination rides on the machine's own
// pending-task accounting (wait_idle).
struct RingHop {
  rt::Machine* m;
  std::int64_t left;
  Pad40 pad;
  void operator()() const {
    if (left > 0) {
      const rt::NodeId cur = rt::Machine::current_node();
      // Branch, not `% node_count()`: an idiv in the payload would be
      // ~15% of the whole per-post budget this case exists to measure.
      rt::NodeId next = cur + 1;
      if (next == m->node_count()) next = 0;
      m->post(next, RingHop{m, left - 1, pad});
    }
  }
};

static_assert(posts_inline<RingHop>(),
              "the reference continuation must fit TaskFn inline");

void run_cross_post(benchmark::State& state, std::uint32_t workers) {
  const std::uint32_t kNodes = 16;
  const std::uint32_t kTokens = 64;  // concurrent ring walkers
  const std::int64_t kHops = 400000;
  double secs = 0.0;
  for (auto _ : state) {
    rt::Machine m({.nodes = kNodes, .workers = workers});
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t t = 0; t < kTokens; ++t) {
      m.post(static_cast<rt::NodeId>(t % kNodes),
             RingHop{&m, kHops / kTokens - 1, {}});
    }
    m.wait_idle();
    secs += seconds_since(t0);
    report_sched_stats(state, m);
  }
  const double total =
      static_cast<double>(kHops) * static_cast<double>(state.iterations());
  state.counters["workers"] = workers;
  state.counters["posts_per_sec"] = total / secs;
  state.counters["ns_per_post"] = secs * 1e9 / total;
}

void BM_CrossPostThroughput_W2(benchmark::State& state) {
  run_cross_post(state, 2);
  MOTIF_BENCH_REPORT(state);
}

void BM_CrossPostThroughput_W4(benchmark::State& state) {
  run_cross_post(state, 4);
  MOTIF_BENCH_REPORT(state);
}

void BM_CrossPostThroughput_W8(benchmark::State& state) {
  run_cross_post(state, 8);
  MOTIF_BENCH_REPORT(state);
}

// --- FanOutFanIn -----------------------------------------------------------

struct FanState {
  rt::Machine* m;
  std::atomic<int>* acks;      // acks outstanding this round
  std::atomic<int>* rounds;    // rounds left
  std::atomic<bool>* done;
};

struct FanScatter;

struct FanAck {
  FanState s;
  Pad40 pad;
  void operator()() const;
};

struct FanEcho {
  FanState s;
  Pad40 pad;
  void operator()() const { s.m->post(0, FanAck{s, {}}); }
};

struct FanScatter {
  FanState s;
  void operator()() const {
    const rt::NodeId n = s.m->node_count();
    s.acks->store(static_cast<int>(n - 1), std::memory_order_relaxed);
    for (rt::NodeId i = 1; i < n; ++i) {
      s.m->post(i, FanEcho{s, {}});
    }
  }
};

void FanAck::operator()() const {
  if (s.acks->fetch_sub(1, std::memory_order_relaxed) == 1) {
    if (s.rounds->fetch_sub(1, std::memory_order_relaxed) > 1) {
      s.m->post(0, FanScatter{s});
    } else {
      s.done->store(true, std::memory_order_release);
    }
  }
}

void BM_FanOutFanIn(benchmark::State& state) {
  const std::uint32_t kNodes = 16;
  const int kRounds = 8000;
  double secs = 0.0;
  for (auto _ : state) {
    rt::Machine m({.nodes = kNodes, .workers = 4});
    std::atomic<int> acks{0};
    std::atomic<int> rounds{kRounds};
    std::atomic<bool> done{false};
    FanState s{&m, &acks, &rounds, &done};
    const auto t0 = std::chrono::steady_clock::now();
    m.post(0, FanScatter{s});
    m.wait_idle();
    secs += seconds_since(t0);
    report_sched_stats(state, m);
    if (!done.load(std::memory_order_acquire)) state.SkipWithError("lost acks");
  }
  // Each round: (nodes-1) scatter posts + (nodes-1) acks.
  const double total = 2.0 * (kNodes - 1) * kRounds *
                       static_cast<double>(state.iterations());
  state.counters["posts_per_sec"] = total / secs;
  state.counters["ns_per_post"] = secs * 1e9 / total;
  MOTIF_BENCH_REPORT(state);
}

// --- TR2ZeroGrain ------------------------------------------------------------

// The perfbench `reduce` workload's shape: jobs run back to back on one
// Machine, after a warm-up, since a fresh Machine's first second is not
// its steady state.
void BM_TR2ZeroGrain(benchmark::State& state) {
  constexpr std::size_t kLeaves = 65536;
  constexpr double kWarmupS = 1.0;
  constexpr double kMeasureS = 2.0;
  constexpr int kMinJobs = 20;
  const auto workers = static_cast<std::uint32_t>(state.range(0));
  const auto plus = [](const char&, const long long& a, const long long& b) {
    return a + b;
  };
  const auto tree = motif::balanced_tree<long long, char>(
      kLeaves, [](std::size_t i) { return static_cast<long long>(i % 1000); },
      '+');
  const long long expected =
      motif::reduce_sequential<long long, char>(tree, plus);
  rt::Machine m({.nodes = 16, .workers = workers});
  motif::TR2Stats st;
  const auto job = [&] {
    if (motif::tree_reduce2<long long, char>(m, tree, plus, &st) != expected) {
      state.SkipWithError("wrong answer");
    }
  };
  for (const auto t0 = std::chrono::steady_clock::now();
       seconds_since(t0) < kWarmupS;) {
    job();
  }
  double secs = 0.0;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    m.reset_counters();
    const auto t0 = std::chrono::steady_clock::now();
    while (jobs < kMinJobs || seconds_since(t0) < kMeasureS) {
      job();
      ++jobs;
    }
    secs += seconds_since(t0);
  }
  const double n = static_cast<double>(jobs);
  state.counters["workers"] = workers;
  state.counters["ns_per_leaf"] = secs * 1e9 / (n * kLeaves);
  state.counters["tasks_per_job"] =
      static_cast<double>(m.load_summary().total_tasks) / n;
  // Of the last job: the labels, and so these counts, vary by job.
  state.counters["value_messages"] = static_cast<double>(st.value_messages);
  state.counters["remote_values"] = static_cast<double>(st.remote_values);
  state.counters["drains"] = static_cast<double>(st.drains);
  const auto s = m.sched_stats();
  state.counters["steals"] = static_cast<double>(s.steals) / n;
  state.counters["parks"] = static_cast<double>(s.parks) / n;
  MOTIF_BENCH_REPORT(state);
}

// --- LabelAll, ReduceSequential ----------------------------------------------

// The two single-thread walks over TR2ZeroGrain's tree: the layer under
// its time that is neither post, steal nor park. Each runs for kMeasureS
// after a warm-up and reports ns_per_leaf.
constexpr std::size_t kWalkLeaves = 65536;

template <class F>
void time_per_leaf(benchmark::State& state, F&& once) {
  constexpr double kWarmupS = 0.5;
  constexpr double kMeasureS = 1.0;
  for (const auto t0 = std::chrono::steady_clock::now();
       seconds_since(t0) < kWarmupS;) {
    once();
  }
  double secs = 0.0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    while (runs < 20 || seconds_since(t0) < kMeasureS) {
      once();
      ++runs;
    }
    secs += seconds_since(t0);
  }
  state.counters["ns_per_leaf"] =
      secs * 1e9 / (static_cast<double>(runs) * kWalkLeaves);
}

auto walk_tree() {
  return motif::balanced_tree<long long, char>(
      kWalkLeaves,
      [](std::size_t i) { return static_cast<long long>(i % 1000); }, '+');
}

constexpr auto kPlus = [](const char&, const long long& a,
                          const long long& b) { return a + b; };

// Tree-Reduce-2's whole labelling on the calling thread, as
// DistTreeReduce2 runs it on every rank: the caller's top walk and every
// processor's subtree walks, for 16 processors, into a fresh engine.
void BM_LabelAll(benchmark::State& state) {
  const auto tree = walk_tree();
  rt::Machine m({.nodes = 16, .workers = 1});
  std::uint64_t seed = 1;
  time_per_leaf(state, [&] {
    auto st = std::make_shared<
        motif::detail::TR2State<long long, char, decltype(kPlus)>>(
        motif::detail::MachinePost{m}, tree, kPlus, motif::LabelPolicy::Paper);
    rt::Rng rng(seed++);
    st->label_all(rng);
    benchmark::DoNotOptimize(st->nodes.get());
  });
  MOTIF_BENCH_REPORT(state);
}

// The sequential oracle over the same tree.
void BM_ReduceSequential(benchmark::State& state) {
  const auto tree = walk_tree();
  time_per_leaf(state, [&] {
    benchmark::DoNotOptimize(
        motif::reduce_sequential<long long, char>(tree, kPlus));
  });
  MOTIF_BENCH_REPORT(state);
}

void args(benchmark::internal::Benchmark* b) {
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_LocalPostChain)->Apply(args);
BENCHMARK(BM_CrossPostThroughput_W2)->Apply(args);
BENCHMARK(BM_CrossPostThroughput_W4)->Apply(args);
BENCHMARK(BM_CrossPostThroughput_W8)->Apply(args);
BENCHMARK(BM_FanOutFanIn)->Apply(args);
BENCHMARK(BM_LabelAll)->Apply(args);
BENCHMARK(BM_ReduceSequential)->Apply(args);
BENCHMARK(BM_TR2ZeroGrain)
    ->DenseRange(1, static_cast<int>(std::max(
                        1u, std::thread::hardware_concurrency())))
    ->Apply(args);

}  // namespace

BENCHMARK_MAIN();
