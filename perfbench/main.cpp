// The motif repository's benchmark: four closed-loop workloads, each one
// caller thread running back-to-back jobs and checking every answer
// against a sequential oracle (README.md explains why each exists).
//
//   perfbench --workload msa|strand|reduce|cluster --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the named workload end to end. --trace 1 runs every
// workload for S/4 seconds, alternating untraced jobs with jobs whose
// calls into the layers are wrapped in spans, and reports the per-layer
// figures plus the tracing slowdown; spans go to --trace-out as a Chrome
// trace. The last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "align/msa.hpp"
#include "interp/interp.hpp"
#include "motifs/dist_tree_reduce.hpp"
#include "motifs/tree.hpp"
#include "motifs/tree_reduce.hpp"
#include "net/cluster.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "runtime/machine.hpp"
#include "runtime/metrics.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "term/parser.hpp"
#include "term/program.hpp"
#include "term/subst.hpp"
#include "transform/tree.hpp"

namespace al = motif::align;
namespace in = motif::interp;
namespace net = motif::net;
namespace rt = motif::rt;
namespace mt = motif::term;
using namespace std::chrono_literals;
using perfbench::JobLog;
using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::SpanLog;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Correct jobs a timed phase collects at least, so job_p90_ms always has
/// ten samples beyond it; the phase runs past --seconds until it has them.
constexpr std::size_t kMinCorrect = 100;
/// A run sets its workload up at least kSetups times and for at least
/// kSetupBudgetS (at most kMaxSetups times); setup_s is the median.
constexpr int kSetups = 5;
constexpr int kMaxSetups = 50;
constexpr double kSetupBudgetS = 1.5;
/// Uncounted jobs run this long after set-up, before timing starts: for
/// about a second after a Machine's threads start, reduce runs 3x faster
/// and msa 2x slower than in the steady state that follows (README.md,
/// seed findings).
constexpr double kWarmupS = 2.0;
/// A job slower than this counts as failed (deadline missed).
constexpr std::chrono::milliseconds kDeadline{5000};

double ms_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e6;
}

std::uint32_t cores() {
  return std::max(2u, std::thread::hardware_concurrency());
}

/// Workload seed -> per-job seed.
std::uint64_t job_seed(std::uint64_t seed, std::uint64_t j) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + j;
  return rt::splitmix64(s);
}

using Outcome = std::optional<std::string>;  // nullopt = correct

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Per-job per-layer samples, reported as medians in first-seen order.
class LayerSamples {
 public:
  void add(const std::string& name, double v, const char* unit) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      it = index_.emplace(name, rows_.size()).first;
      rows_.push_back({name, unit, {}});
    }
    rows_[it->second].values.push_back(v);
  }
  void into(Metrics& out) const {
    for (const auto& r : rows_) {
      out.push_back({r.name, perfbench::median(r.values), r.unit});
    }
  }

 private:
  struct Row {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  std::vector<Row> rows_;
  std::unordered_map<std::string, std::size_t> index_;
};

/// Spans of the traced run: per-job analysis takes them from `log`, and
/// every span is kept for the trace file.
struct TraceSink {
  SpanLog log;
  std::vector<Span> kept;

  std::vector<Span> finish_job() {
    std::vector<Span> s = log.take();
    kept.insert(kept.end(), s.begin(), s.end());
    return s;
  }
};

double span_ms(const std::vector<Span>& spans, const std::string& name) {
  double ms = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) ms += s.ms();
  }
  return ms;
}

void add_deltas(LayerSamples& L, const std::string& prefix,
                const perfbench::CounterDelta& d) {
  L.add(prefix + "tasks", static_cast<double>(d.tasks), "count");
  L.add(prefix + "remote_msgs", static_cast<double>(d.remote_msgs), "count");
  L.add(prefix + "steals", static_cast<double>(d.steals), "count");
  L.add(prefix + "parks", static_cast<double>(d.parks), "count");
  L.add(prefix + "fast_hits", static_cast<double>(d.fast_hits), "count");
  L.add(prefix + "injects", static_cast<double>(d.injects), "count");
  L.add(prefix + "task_imbalance", d.task_imbalance, "ratio");
}

/// Resets a process-wide gauge's peak to its current value, so the next
/// peak() is the peak of what follows. Only between jobs (machine idle).
void restart_peak(rt::Gauge& g) {
  const std::int64_t cur = g.current();
  g.reset();
  g.add(cur);
}

// ---- msa: the paper's case study ------------------------------------------

/// progressive_msa with Tree-Reduce-2 over synthetic_family(64, 200, seed)
/// on one Machine{8 nodes}; Sequential oracle jobs interleave with it.
class Msa {
 public:
  static constexpr const char* kName = "msa";
  static constexpr std::uint64_t kBaselineEvery = 1;

  Msa(std::uint64_t seed, LayerSamples*)
      : fam_(al::synthetic_family(64, 200, seed)),
        m_({.nodes = 8, .workers = cores() - 1, .seed = seed}) {
    const auto ref = al::progressive_msa(m_, fam_.sequences, fam_.guide,
                                         al::MsaSchedule::Sequential);
    columns_ = ref.profile.length();
    sp_ = ref.sum_of_pairs_score;
  }

  Outcome job(std::uint64_t) {
    return check(al::progressive_msa(m_, fam_.sequences, fam_.guide,
                                     al::MsaSchedule::TreeReduce2));
  }

  /// The Sequential schedule, the baseline of `speedup`.
  Outcome baseline(std::uint64_t) {
    return check(al::progressive_msa(m_, fam_.sequences, fam_.guide,
                                     al::MsaSchedule::Sequential));
  }

  /// progressive_msa rebuilt from the public pieces msa.cpp uses, with
  /// every align-node call in a span.
  Outcome traced_job(std::uint64_t j, TraceSink& sink, LayerSamples& L) {
    using PTree = motif::Tree<al::ProfilePtr, char>;
    std::function<PTree::Ptr(const motif::Tree<int, char>::Ptr&)> build =
        [&](const motif::Tree<int, char>::Ptr& g) -> PTree::Ptr {
      if (g->is_leaf()) {
        return PTree::leaf(std::make_shared<const al::Profile>(
            fam_.sequences.at(static_cast<std::size_t>(g->value()))));
      }
      return PTree::node(g->tag(), build(g->left()), build(g->right()));
    };

    // Which span produced each intermediate profile: an align-node span
    // depends on the spans that built its two inputs.
    std::mutex producer_m;
    std::unordered_map<const al::Profile*, std::int64_t> producer;
    std::atomic<std::uint64_t> cells{0};
    std::int64_t tr2_span = -1;
    auto eval = [&](const char&, const al::ProfilePtr& a,
                    const al::ProfilePtr& b) -> al::ProfilePtr {
      Span s;
      s.id = sink.log.next_id();
      s.parent = tr2_span;
      s.job = static_cast<std::int64_t>(j);
      s.name = "align.align_profiles";
      {
        std::lock_guard<std::mutex> lk(producer_m);
        for (int k = 0; k < 2; ++k) {
          auto it = producer.find((k == 0 ? a : b).get());
          if (it != producer.end()) s.deps[k] = it->second;
        }
      }
      s.t0_ns = perfbench::now_ns();
      auto out =
          std::make_shared<const al::Profile>(al::align_profiles(*a, *b));
      s.t1_ns = perfbench::now_ns();
      cells.fetch_add(a->length() * b->length(), std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lk(producer_m);
        producer[out.get()] = s.id;
      }
      sink.log.add(std::move(s));
      return out;
    };

    restart_peak(rt::active_evals());
    restart_peak(rt::live_bytes());
    const std::int64_t live0 = rt::live_bytes().current();
    const auto c0 = perfbench::snap(m_);
    motif::TR2Stats st;
    al::MsaResult r;
    const auto jid = static_cast<std::int64_t>(j);
    {
      ScopedSpan job(&sink.log, "msa.job", jid);
      PTree::Ptr tree = build(fam_.guide);
      {
        ScopedSpan tr2(&sink.log, "motifs.tree_reduce2", jid);
        tr2_span = tr2.id();
        r.profile =
            *motif::tree_reduce2<al::ProfilePtr, char>(m_, tree, eval, &st);
      }
      ScopedSpan sp(&sink.log, "align.sum_of_pairs", jid);
      r.sum_of_pairs_score = al::sum_of_pairs(r.profile);
    }
    const auto d = perfbench::delta(c0, perfbench::snap(m_));
    const std::int64_t peak_live = rt::live_bytes().peak() - live0;
    const std::vector<Span> spans = sink.finish_job();

    std::vector<Span> aligns;
    for (const Span& s : spans) {
      if (s.name == "align.align_profiles") aligns.push_back(s);
    }
    const double busy = span_ms(spans, "align.align_profiles");
    const double sp_ms = span_ms(spans, "align.sum_of_pairs");
    const double cp = perfbench::critical_path_ms(aligns);
    const auto self = perfbench::self_ms_by_name(spans);
    L.add("align.node_calls", static_cast<double>(aligns.size()), "count");
    L.add("align.node_busy_ms", busy, "ms");
    L.add("align.cells", static_cast<double>(cells.load()), "computed_cells");
    L.add("align.cells_per_us",
          static_cast<double>(cells.load()) / (busy * 1000.0), "cells/us");
    L.add("align.sp_ms", sp_ms, "ms");
    L.add("motifs.tr2.critical_path_ms", cp, "ms");
    L.add("motifs.tr2.wait_ms", span_ms(spans, "msa.job") - cp - sp_ms, "ms");
    L.add("motifs.tr2.self_ms", self.at("motifs.tree_reduce2"), "ms");
    L.add("motifs.tr2.msa.remote_values",
          static_cast<double>(st.remote_values), "count");
    L.add("motifs.tr2.msa.local_values", static_cast<double>(st.local_values),
          "count");
    L.add("motifs.tr2.peak_live_evals",
          static_cast<double>(rt::active_evals().peak()), "count");
    L.add("motifs.tr2.peak_live_MiB", static_cast<double>(peak_live) / kMiB,
          "MiB");
    L.add("runtime.msa.steals", static_cast<double>(d.steals), "count");
    L.add("runtime.msa.parks", static_cast<double>(d.parks), "count");
    L.add("runtime.msa.task_imbalance", d.task_imbalance, "ratio");
    return check(r);
  }

  void layer_extras(LayerSamples&, const JobLog&) {}

 private:
  Outcome check(const al::MsaResult& r) const {
    if (r.profile.length() != columns_ || r.sum_of_pairs_score != sp_) {
      return "wrong_answer";
    }
    return std::nullopt;
  }

  al::SyntheticFamily fam_;
  rt::Machine m_;
  std::size_t columns_ = 0;
  double sp_ = 0.0;
};

// ---- strand: the Figure 5/6 pipeline through the interpreter --------------

const char* kUserEval = R"(
  eval('+',L,R,Value) :- Value is L + R.
  eval('*',L,R,Value) :- Value is L * R.
)";
constexpr std::size_t kStrandLeaves = 1024;

std::string sum_tree_src(std::size_t n) {
  if (n == 1) return "leaf(1)";
  return "tree('+'," + sum_tree_src(n / 2) + "," + sum_tree_src(n - n / 2) +
         ")";
}

/// Tree-Reduce-1 (Server ∘ Rand ∘ Tree1) applied to the two-rule eval
/// program; each job builds an Interp{4 nodes} and runs
/// create(4, run(<1024-leaf '+' tree>, Value)).
class Strand {
 public:
  static constexpr const char* kName = "strand";
  static constexpr std::uint64_t kBaselineEvery = 1;

  Strand(std::uint64_t seed, LayerSamples* L) : seed_(seed) {
    const std::int64_t t0 = perfbench::now_ns();
    const mt::Program user = mt::Program::parse(kUserEval);
    goal_ = mt::parse_term("create(4, run(" + sum_tree_src(kStrandLeaves) +
                           ",Value))");
    const std::int64_t t1 = perfbench::now_ns();
    program_ = motif::transform::tree_reduce1_motif().apply(user);
    const std::int64_t t2 = perfbench::now_ns();
    if (L != nullptr) {
      L->add("term.parse_ms", ms_between(t0, t1), "ms");
      L->add("transform.apply_ms", ms_between(t1, t2), "ms");
    }
  }

  Outcome job(std::uint64_t j) { return run(j, cores() - 1, nullptr, nullptr); }

  /// The same job on one worker thread: the sequential run of the same
  /// program, the baseline of `speedup`.
  Outcome baseline(std::uint64_t j) { return run(j, 1, nullptr, nullptr); }

  Outcome traced_job(std::uint64_t j, TraceSink& sink, LayerSamples& L) {
    in::RunResult r;
    Outcome o;
    {
      ScopedSpan job(&sink.log, "strand.job", static_cast<std::int64_t>(j));
      o = run(j, cores() - 1, &sink.log, &r);
    }
    const std::vector<Span> spans = sink.finish_job();
    const double run_ms = span_ms(spans, "interp.run");
    L.add("term.rename_ms", span_ms(spans, "term.rename_fresh"), "ms");
    L.add("interp.start_ms",
          span_ms(spans, "interp.construct") + span_ms(spans, "interp.destroy"),
          "ms");
    L.add("interp.run_ms", run_ms, "ms");
    if (!o) {
      const auto red = static_cast<double>(r.reductions);
      L.add("interp.reductions", red, "count");
      L.add("interp.suspensions", static_cast<double>(r.suspensions), "count");
      L.add("interp.suspend_ratio", static_cast<double>(r.suspensions) / red,
            "ratio");
      L.add("interp.reductions_per_ms", red / run_ms, "1/ms");
    }
    return o;
  }

  /// Failed jobs per job attempted, by class, over this pass.
  void layer_extras(LayerSamples& L, const JobLog& pass) {
    const auto& f = pass.failures();
    const auto n = static_cast<double>(pass.attempted());
    const std::size_t race =
        f.count("not_a_variable") != 0 ? f.at("not_a_variable") : 0;
    L.add("interp.fail.not_a_variable", static_cast<double>(race) / n, "1/job");
    L.add("interp.fail.other", static_cast<double>(pass.failed() - race) / n,
          "1/job");
  }

 private:
  Outcome run(std::uint64_t j, std::uint32_t workers, SpanLog* log,
              in::RunResult* out) {
    const auto jid = static_cast<std::int64_t>(j);
    mt::Term goal;
    {
      ScopedSpan s(log, "term.rename_fresh", jid);
      mt::Bindings fresh;
      goal = mt::rename_fresh(goal_, fresh);
    }
    in::InterpOptions opts;
    opts.nodes = 4;
    opts.workers = workers;
    opts.seed = job_seed(seed_, j);
    std::optional<in::Interp> interp;
    {
      ScopedSpan s(log, "interp.construct", jid);
      interp.emplace(program_, opts);
    }
    in::RunResult r;
    {
      ScopedSpan s(log, "interp.run", jid);
      r = interp->run(goal);
    }
    {
      ScopedSpan s(log, "interp.destroy", jid);
      interp.reset();
    }
    if (out != nullptr) *out = r;
    if (r.deadlocked()) return "deadlock";
    const mt::Term v = goal.arg(1).arg(1).deref();
    if (!v.is_int() || v.int_value() != static_cast<long long>(kStrandLeaves)) {
      return "wrong_answer";
    }
    return std::nullopt;
  }

  std::uint64_t seed_;
  mt::Term goal_;
  mt::Program program_;
};

// ---- reduce: native Tree-Reduce-2 at zero grain ----------------------------

constexpr std::size_t kReduceLeaves = 65536;

using LeafTree = motif::Tree<long long, char>;

/// tree_reduce2 (sum) over a balanced 65,536-leaf tree on one persistent
/// Machine{16 nodes}: post, steal and park decide the time.
class Reduce {
 public:
  static constexpr const char* kName = "reduce";
  static constexpr std::uint64_t kBaselineEvery = 4;

  Reduce(std::uint64_t seed, LayerSamples*)
      : seed_(seed),
        tree_(motif::balanced_tree<long long, char>(
            kReduceLeaves,
            [seed](std::size_t i) {
              std::uint64_t s = seed + 0x9E3779B97F4A7C15ull * (i + 1);
              return static_cast<long long>(rt::splitmix64(s) % 1000);
            },
            '+')),
        expected_(sum(tree_)),
        m_(config(seed, cores() - 1)) {}

  Outcome job(std::uint64_t j) { return run(m_, j, nullptr); }

  /// The same job on a one-worker Machine, the baseline of `speedup`. The
  /// Machine is built on first use, which keeps it out of the timed set-up.
  Outcome baseline(std::uint64_t j) {
    if (!solo_) solo_.emplace(config(seed_, 1));
    return run(*solo_, j, nullptr);
  }

  Outcome traced_job(std::uint64_t j, TraceSink& sink, LayerSamples& L) {
    const auto c0 = perfbench::snap(m_);
    Outcome o;
    {
      ScopedSpan job(&sink.log, "reduce.job", static_cast<std::int64_t>(j));
      o = run(m_, j, &sink.log);
    }
    const auto d = perfbench::delta(c0, perfbench::snap(m_));
    const std::vector<Span> spans = sink.finish_job();
    const double launch = span_ms(spans, "motifs.tree_reduce2_async");
    L.add("motifs.tr2.launch_ms", launch, "ms");
    L.add("runtime.post_ns", launch * 1e6 / static_cast<double>(kReduceLeaves),
          "ns");
    L.add("runtime.drain_ms", span_ms(spans, "runtime.wait_idle_for"), "ms");
    add_deltas(L, "runtime.", d);
    return o;
  }

  /// Machine bring-up + shutdown, and the TR2Stats message split (only
  /// the blocking tree_reduce2 reports it).
  void layer_extras(LayerSamples& L, const JobLog&) {
    for (int k = 0; k < 3; ++k) {
      motif::TR2Stats st;
      const long long v =
          motif::tree_reduce2<long long, char>(m_, tree_, plus, &st);
      if (v != expected_) throw std::runtime_error("reduce: wrong answer");
      L.add("motifs.tr2.reduce.remote_values",
            static_cast<double>(st.remote_values), "count");
      L.add("motifs.tr2.reduce.local_values",
            static_cast<double>(st.local_values), "count");
    }
    for (int k = 0; k < kSetups; ++k) {
      const std::int64_t t0 = perfbench::now_ns();
      rt::Machine m(config(0, cores() - 1));
      m.shutdown();
      L.add("runtime.start_ms", ms_between(t0, perfbench::now_ns()), "ms");
    }
  }

 private:
  static constexpr auto plus = [](const char&, const long long& a,
                                  const long long& b) { return a + b; };
  static long long sum(const LeafTree::Ptr& t) {
    return motif::reduce_sequential<long long, char>(t, plus);
  }
  static rt::MachineConfig config(std::uint64_t seed, std::uint32_t workers) {
    return {.nodes = 16, .workers = workers, .seed = seed};
  }

  Outcome run(rt::Machine& m, std::uint64_t j, SpanLog* log) {
    const auto jid = static_cast<std::int64_t>(j);
    rt::SVar<long long> out;
    {
      ScopedSpan s(log, "motifs.tree_reduce2_async", jid);
      out = motif::tree_reduce2_async<long long, char>(m, tree_, plus);
    }
    rt::RunOutcome oc;
    {
      ScopedSpan s(log, "runtime.wait_idle_for", jid);
      oc = m.wait_idle_for(kDeadline);
    }
    if (!oc.ok()) return std::string(rt::to_string(oc.status));
    if (!out.bound()) return "stalled";
    if (out.get() != expected_) return "wrong_answer";
    return std::nullopt;
  }

  std::uint64_t seed_;
  LeafTree::Ptr tree_;
  long long expected_;
  rt::Machine m_;
  std::optional<rt::Machine> solo_;
};

// ---- cluster: DistTreeReduce2 over two TCP ranks in one process ------------

constexpr std::uint32_t kClusterDepth = 12;

/// Two cluster ranks over TCP localhost in one process, 4 nodes each, with
/// a DistTreeReduce2 on both; rank 0 runs the reductions.
class TcpPair {
 public:
  TcpPair(std::uint64_t seed, std::uint32_t workers_per_rank) {
    const auto ports = net::pick_free_ports(2);
    std::vector<std::string> peers;
    for (auto p : ports) peers.push_back("127.0.0.1:" + std::to_string(p));
    for (std::uint32_t r = 0; r < 2; ++r) {
      tcp_.push_back(net::make_tcp_transport(r, peers));
      net::ClusterConfig cfg;
      cfg.nodes_per_rank = 4;
      cfg.machine.workers = workers_per_rank;
      cfg.machine.seed = seed + r;
      cs_.push_back(std::make_unique<net::Cluster>(*tcp_[r], cfg));
      trs_.push_back(std::make_unique<motif::DistTreeReduce2>(*cs_[r]));
    }
    // start() blocks on the connect handshake: both ranks concurrently.
    const std::int64_t t0 = perfbench::now_ns();
    std::exception_ptr follower_error;
    std::thread follower([&] {
      try {
        cs_[1]->start();
      } catch (...) {
        follower_error = std::current_exception();
      }
    });
    try {
      cs_[0]->start();
    } catch (...) {
      follower.join();
      throw;
    }
    follower.join();
    if (follower_error) std::rethrow_exception(follower_error);
    bringup_ms_ = ms_between(t0, perfbench::now_ns());
  }

  ~TcpPair() {
    for (auto& c : cs_) c->shutdown();
  }
  TcpPair(const TcpPair&) = delete;
  TcpPair& operator=(const TcpPair&) = delete;

  double bringup_ms() const { return bringup_ms_; }
  net::Cluster& rank0() { return *cs_[0]; }

  Outcome run(std::uint64_t seed) {
    const auto r = trs_[0]->run(kClusterDepth, seed, kDeadline);
    if (!r.outcome.ok()) return std::string(rt::to_string(r.outcome.status));
    if (!r.ok) return "wrong_answer";
    return std::nullopt;
  }

  /// Network counters summed over both ranks.
  rt::NetStats net_total() const {
    rt::NetStats t;
    for (const auto& c : cs_) {
      const rt::NetStats s = c->net_stats();
      t.tx_frames += s.tx_frames;
      t.tx_bytes += s.tx_bytes;
      t.ctl_frames += s.ctl_frames;
    }
    return t;
  }

 private:
  std::vector<std::unique_ptr<net::Transport>> tcp_;
  std::vector<std::unique_ptr<net::Cluster>> cs_;
  std::vector<std::unique_ptr<motif::DistTreeReduce2>> trs_;
  double bringup_ms_ = 0.0;
};

/// DistTreeReduce2::run(12, seed_j) on a TcpPair with `cores() / 2`
/// workers per rank (at most `cores()` in total); a second pair with one
/// worker per rank runs the same reductions as the baseline of `speedup`.
class ClusterW {
 public:
  static constexpr const char* kName = "cluster";
  static constexpr std::uint64_t kBaselineEvery = 4;

  ClusterW(std::uint64_t seed, LayerSamples* L)
      : seed_(seed), pair_(seed, cores() / 2) {
    if (L != nullptr) L->add("net.bringup_ms", pair_.bringup_ms(), "ms");
  }

  Outcome job(std::uint64_t j) { return run(j, nullptr); }

  /// The one-worker pair is brought up on first use, which keeps it out of
  /// the timed set-up.
  Outcome baseline(std::uint64_t j) {
    if (!solo_) solo_.emplace(seed_, 1);
    return solo_->run(job_seed(seed_, j));
  }

  Outcome traced_job(std::uint64_t j, TraceSink& sink, LayerSamples& L) {
    const rt::NetStats n0 = pair_.net_total();
    Outcome o;
    {
      ScopedSpan job(&sink.log, "cluster.job", static_cast<std::int64_t>(j));
      o = run(j, &sink.log);
    }
    const rt::NetStats n1 = pair_.net_total();
    sink.finish_job();
    const auto frames = static_cast<double>(n1.tx_frames - n0.tx_frames);
    const auto bytes = static_cast<double>(n1.tx_bytes - n0.tx_bytes);
    L.add("net.tx_frames", frames, "count");
    L.add("net.tx_bytes", bytes, "bytes");
    L.add("net.bytes_per_frame", bytes / frames, "bytes");
    L.add("net.ctl_frames", static_cast<double>(n1.ctl_frames - n0.ctl_frames),
          "count");
    return o;
  }

  /// Wire codec round trip on the workload's arrive payload, and the
  /// termination-detection floor of an idle cluster.
  void layer_extras(LayerSamples& L, const JobLog&) {
    net::Frame f;
    f.type = net::FrameType::Post;
    f.dst_node = 5;
    f.handler = 0;
    std::vector<mt::Term> ints;
    for (std::int64_t v : {7, 12, 12345, 2047, 1, 998}) {
      ints.push_back(mt::Term::integer(v));
    }
    f.payload = mt::Term::tuple(std::move(ints));
    constexpr int kRoundTrips = 2000;
    for (int k = 0; k < 9; ++k) {
      std::size_t used = 0, total = 0;
      const std::int64_t t0 = perfbench::now_ns();
      for (int i = 0; i < kRoundTrips; ++i) {
        const std::vector<std::uint8_t> bytes = net::encode_frame(f);
        const auto g = net::decode_frame(bytes.data(), bytes.size(), &used);
        if (!g) throw std::runtime_error("codec: frame did not decode");
        total += used;
      }
      const double ns =
          static_cast<double>(perfbench::now_ns() - t0) / kRoundTrips;
      if (total == 0) throw std::runtime_error("codec: empty frames");
      L.add("net.codec_ns", ns, "ns");
    }
    for (int k = 0; k < 9; ++k) {
      const std::int64_t t0 = perfbench::now_ns();
      const rt::RunOutcome oc = pair_.rank0().wait_idle_for(5s);
      if (!oc.ok()) throw std::runtime_error("idle cluster: " + oc.to_string());
      L.add("net.quiesce_ms", ms_between(t0, perfbench::now_ns()), "ms");
    }
  }

 private:
  Outcome run(std::uint64_t j, SpanLog* log) {
    ScopedSpan s(log, "motifs.dist_tree_reduce2", static_cast<std::int64_t>(j));
    return pair_.run(job_seed(seed_, j));
  }

  std::uint64_t seed_;
  TcpPair pair_;
  std::optional<TcpPair> solo_;
};

// ---- run loops -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Runs one job, turning exceptions and deadline misses into failures.
template <class Fn>
Outcome attempt(Fn&& fn, double* latency_ms) {
  const std::int64_t t0 = perfbench::now_ns();
  Outcome o;
  try {
    o = fn();
  } catch (const std::exception& e) {
    o = perfbench::failure_class(e.what());
  } catch (...) {
    o = "other";
  }
  *latency_ms = ms_between(t0, perfbench::now_ns());
  if (!o && *latency_ms > static_cast<double>(kDeadline.count())) {
    o = "deadline";
  }
  return o;
}

/// Runs uncounted jobs for kWarmupS (at least one), each followed by its
/// sequential baseline when `baselines` is set.
template <class W>
void warm_up(W& w, bool baselines) {
  const std::int64_t start = perfbench::now_ns();
  double lat = 0.0;
  for (std::uint64_t j = 0;
       j == 0 || ms_between(start, perfbench::now_ns()) < kWarmupS * 1e3;
       ++j) {
    attempt([&] { return w.job(j); }, &lat);
    if (baselines) {
      attempt([&] { return w.baseline(j); }, &lat);
    }
  }
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct RunTotals {
  JobLog log;        ///< the jobs of the named workload
  JobLog baselines;  ///< the runs `speedup` divides by
  JobLog others;     ///< traced passes of the other workloads
};

/// End-to-end measurement of workload W (closed loop, one caller).
template <class W>
Metrics run_e2e(const Args& a, RunTotals& tot) {
  std::vector<double> setups;
  std::unique_ptr<W> w;
  double spent_s = 0.0;
  for (int k = 0; k < kMaxSetups && (k < kSetups || spent_s < kSetupBudgetS);
       ++k) {
    w.reset();
    const std::int64_t t0 = perfbench::now_ns();
    w = std::make_unique<W>(a.seed, nullptr);
    setups.push_back(ms_between(t0, perfbench::now_ns()) / 1e3);
    spent_s += setups.back();
  }
  warm_up(*w, true);

  JobLog& log = tot.log;
  double busy_ms = 0.0;
  const std::int64_t start = perfbench::now_ns();
  const double cap_ms = std::max(a.seconds * 1e3, 120e3);
  for (std::uint64_t j = 1;; ++j) {
    const double elapsed = ms_between(start, perfbench::now_ns());
    if ((elapsed >= a.seconds * 1e3 && log.correct() >= kMinCorrect) ||
        elapsed >= cap_ms) {
      break;
    }
    // Every kBaselineEvery-th job has a baseline run next to it, before the
    // job and after it in turn. Baseline failures are tallied like jobs'.
    const bool with_base = j % W::kBaselineEvery == 0;
    const bool base_first = (j / W::kBaselineEvery) % 2 == 1;
    auto baseline = [&] {
      double ms = 0.0;
      const Outcome o = attempt([&] { return w->baseline(j); }, &ms);
      o ? tot.baselines.fail(*o) : tot.baselines.ok(ms);
    };
    if (with_base && base_first) baseline();
    double lat = 0.0;
    const Outcome o = attempt([&] { return w->job(j); }, &lat);
    busy_ms += lat;
    o ? log.fail(*o) : log.ok(lat);
    if (with_base && !base_first) baseline();
  }

  const auto& lat = log.latencies_ms();
  if (!perfbench::tail_supported(lat.size(), 90)) {
    std::printf("warning: job_p90_ms has fewer than %zu samples beyond it\n",
                perfbench::kTailSamples);
  }
  std::printf("%s: %zu jobs attempted, %zu correct\n", W::kName,
              log.attempted(), log.correct());
  // Printed, not reported: a run's p90 follows the share of the run the
  // host spent in its slow state, and it spread too far between runs to
  // carry a bound (README.md, "Steadiness").
  std::printf("%s: job_p90_ms %.3f over %zu samples\n", W::kName,
              perfbench::percentile(lat, 90), lat.size());
  std::printf("%s: %zu baseline runs, %zu correct\n", W::kName,
              tot.baselines.attempted(), tot.baselines.correct());
  std::printf("%s: %zu set-ups, median %.3f ms, max %.3f ms\n", W::kName,
              setups.size(), perfbench::median(setups) * 1e3,
              *std::max_element(setups.begin(), setups.end()) * 1e3);
  const double p50 = perfbench::median(lat);
  return {
      {"setup_s", perfbench::median(setups), "s"},
      {"jobs_per_s", static_cast<double>(log.correct()) / (busy_ms / 1e3),
       "1/s"},
      {"job_p50_ms", p50, "ms"},
      {"ok_frac", log.ok_frac(), "fraction"},
      {"peak_rss_MiB", peak_rss_mib(), "MiB"},
      {"speedup", perfbench::median(tot.baselines.latencies_ms()) / p50, "x"},
  };
}

/// Traced pass of workload W for `seconds`, warm-up included: untraced
/// and traced jobs alternate; the ratio of their rates is the tracing
/// slowdown. The jobs count in `attempted` and `failed` only when W is the
/// named workload; the other passes' failures show in their layer figures
/// (interp.fail.*) and in the printed tallies, and a wrong answer in any
/// pass still makes the run incorrect.
template <class W>
void run_traced(const Args& a, double seconds, RunTotals& tot, TraceSink& sink,
                LayerSamples& L) {
  W w(a.seed, &L);
  warm_up(w, false);
  seconds = std::max(seconds - kWarmupS, 0.0);
  JobLog pass;
  JobLog& run_log = a.workload == W::kName ? tot.log : tot.others;
  double ms[2] = {0.0, 0.0};
  std::size_t n[2] = {0, 0};
  const std::int64_t start = perfbench::now_ns();
  for (std::uint64_t j = 1;
       ms_between(start, perfbench::now_ns()) < seconds * 1e3 || n[1] < 3;
       ++j) {
    const int traced = static_cast<int>(j % 2);
    double lat = 0.0;
    const Outcome o = attempt(
        [&] { return traced ? w.traced_job(j, sink, L) : w.job(j); }, &lat);
    sink.finish_job();  // spans of a job that threw
    ms[traced] += lat;
    ++n[traced];
    for (JobLog* log : {&pass, &run_log}) o ? log->fail(*o) : log->ok(lat);
  }
  L.add(std::string("trace.slowdown.") + W::kName,
        (static_cast<double>(n[0]) / ms[0]) /
            (static_cast<double>(n[1]) / ms[1]),
        "ratio");
  w.layer_extras(L, pass);
}

void print_json(const RunTotals& tot, const Metrics& metrics) {
  const bool correct = perfbench::run_correct(tot.log, tot.baselines) &&
                       tot.others.failures().count("wrong_answer") == 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tot.log.attempted());
  out += ", \"failed\": " + std::to_string(tot.log.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s was not measured\n", m.name.c_str());
      std::exit(1);
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "msa|strand|reduce|cluster --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.workload != "msa" && a.workload != "strand" &&
      a.workload != "reduce" && a.workload != "cluster") {
    usage("unknown workload");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  RunTotals tot;
  Metrics metrics;
  if (a.trace) {
    TraceSink sink;
    LayerSamples L;
    const double share = a.seconds / 4;
    run_traced<Msa>(a, share, tot, sink, L);
    run_traced<Strand>(a, share, tot, sink, L);
    run_traced<Reduce>(a, share, tot, sink, L);
    run_traced<ClusterW>(a, share, tot, sink, L);
    L.into(metrics);
    if (!a.trace_out.empty() &&
        !perfbench::write_chrome_trace(a.trace_out, sink.kept)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
      return 1;
    }
  } else if (a.workload == "msa") {
    metrics = run_e2e<Msa>(a, tot);
  } else if (a.workload == "strand") {
    metrics = run_e2e<Strand>(a, tot);
  } else if (a.workload == "reduce") {
    metrics = run_e2e<Reduce>(a, tot);
  } else {
    metrics = run_e2e<ClusterW>(a, tot);
  }
  for (const auto& [why, count] : tot.log.failures()) {
    std::printf("failures[%s] = %zu\n", why.c_str(), count);
  }
  for (const auto& [why, count] : tot.baselines.failures()) {
    std::printf("baseline failures[%s] = %zu\n", why.c_str(), count);
  }
  for (const auto& [why, count] : tot.others.failures()) {
    std::printf("other traced passes failures[%s] = %zu\n", why.c_str(),
                count);
  }
  print_json(tot, metrics);
  return 0;
}
