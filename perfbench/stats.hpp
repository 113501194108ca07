// The benchmark's own arithmetic: job outcome tallies, percentiles with
// the "at least ten samples beyond" rule, and per-job deltas of the
// runtime's monotonic counters. Header-only so stats_test.cpp checks the
// exact code the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/machine.hpp"

namespace perfbench {

/// Samples a percentile needs strictly above its nearest-rank position
/// before the benchmark reports it.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank position (1-based) of percentile `p` (0 < p <= 100) in `n`
/// sorted samples.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const auto k = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n);
}

/// True when percentile `p` of `n` samples has at least kTailSamples
/// samples beyond it (p90 needs n >= 100, p50 needs n >= 20).
inline bool tail_supported(std::size_t n, double p) {
  return n > 0 && n - nearest_rank(n, p) >= kTailSamples;
}

/// Nearest-rank percentile; NaN for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

/// Median by the usual even-count midpoint rule (per-job layer figures).
inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Outcomes of a closed loop of jobs. Only correct jobs contribute
/// latency samples; every attempt counts in the ok_frac base.
class JobLog {
 public:
  void ok(double latency_ms) { latencies_ms_.push_back(latency_ms); }

  /// A job that threw, returned a wrong answer, missed its deadline or
  /// was classified not-ok; `why` is its failure class.
  void fail(const std::string& why) { ++failures_[why]; }

  std::size_t correct() const { return latencies_ms_.size(); }
  std::size_t failed() const {
    std::size_t n = 0;
    for (const auto& [_, c] : failures_) n += c;
    return n;
  }
  std::size_t attempted() const { return correct() + failed(); }
  double ok_frac() const {
    return attempted() == 0 ? 0.0
                            : static_cast<double>(correct()) /
                                  static_cast<double>(attempted());
  }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  const std::map<std::string, std::size_t>& failures() const {
    return failures_;
  }

 private:
  std::vector<double> latencies_ms_;
  std::map<std::string, std::size_t> failures_;
};

/// A run is correct when some job was and neither a job nor a baseline run
/// produced a wrong value. Throws, stalls and missed deadlines are failures
/// to count, not wrong answers.
inline bool run_correct(const JobLog& jobs, const JobLog& baselines) {
  return jobs.correct() > 0 && jobs.failures().count("wrong_answer") == 0 &&
         baselines.failures().count("wrong_answer") == 0;
}

/// Failure class of an exception message: the multi-core term race
/// throws "not a variable: ..." and gets its own class.
inline std::string failure_class(const std::string& what) {
  if (what.rfind("not a variable", 0) == 0) return "not_a_variable";
  return "other";
}

/// Monotonic runtime counters of one Machine at one instant.
struct CounterSnap {
  std::vector<std::uint64_t> node_tasks;
  std::uint64_t remote_msgs = 0;
  std::uint64_t steals = 0;
  std::uint64_t parks = 0;
  std::uint64_t fast_hits = 0;
  std::uint64_t injects = 0;
};

inline CounterSnap snap(const motif::rt::Machine& m) {
  CounterSnap s;
  for (std::uint32_t n = 0; n < m.node_count(); ++n) {
    s.node_tasks.push_back(
        m.counters(n).tasks.load(std::memory_order_relaxed));
  }
  const auto load = m.load_summary();
  s.remote_msgs = load.remote_msgs;
  s.steals = load.sched.steals;
  s.parks = load.sched.parks;
  s.fast_hits = load.sched.mailbox_fast_hits;
  s.injects = load.sched.injects;
  return s;
}

/// What one job did on a persistent Machine: after - before.
struct CounterDelta {
  std::uint64_t tasks = 0;
  std::uint64_t remote_msgs = 0;
  std::uint64_t steals = 0;
  std::uint64_t parks = 0;
  std::uint64_t fast_hits = 0;
  std::uint64_t injects = 0;
  double task_imbalance = 0.0;  ///< max / mean of per-node task deltas
};

inline CounterDelta delta(const CounterSnap& before,
                          const CounterSnap& after) {
  CounterDelta d;
  std::uint64_t max_tasks = 0;
  for (std::size_t n = 0; n < after.node_tasks.size(); ++n) {
    const std::uint64_t t = after.node_tasks[n] - before.node_tasks[n];
    d.tasks += t;
    max_tasks = std::max(max_tasks, t);
  }
  d.remote_msgs = after.remote_msgs - before.remote_msgs;
  d.steals = after.steals - before.steals;
  d.parks = after.parks - before.parks;
  d.fast_hits = after.fast_hits - before.fast_hits;
  d.injects = after.injects - before.injects;
  if (d.tasks > 0) {
    const double mean = static_cast<double>(d.tasks) /
                        static_cast<double>(after.node_tasks.size());
    d.task_imbalance = static_cast<double>(max_tasks) / mean;
  }
  return d;
}

}  // namespace perfbench
