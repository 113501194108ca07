#include "runtime/metrics.hpp"

#include <algorithm>
#include <limits>

namespace motif::rt {

Gauge& live_bytes() {
  static Gauge g;
  return g;
}

Gauge& active_evals() {
  static Gauge g;
  return g;
}

std::atomic<std::uint64_t>& dropped_task_errors() {
  static std::atomic<std::uint64_t> n{0};
  return n;
}

std::atomic<std::size_t>& eval_working_bytes() {
  static std::atomic<std::size_t> b{0};
  return b;
}

LoadSummary summarize(
    std::size_t n, const std::function<const NodeCounters&(std::size_t)>& at) {
  LoadSummary s;
  if (n == 0) return s;
  s.min_tasks = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeCounters& c = at(i);
    const std::uint64_t t = c.tasks.load(std::memory_order_relaxed);
    s.total_tasks += t;
    s.max_tasks = std::max(s.max_tasks, t);
    s.min_tasks = std::min(s.min_tasks, t);
    s.remote_msgs += c.posts_remote.load(std::memory_order_relaxed);
    s.local_msgs += c.posts_local.load(std::memory_order_relaxed);
    const std::uint64_t w = c.work.load(std::memory_order_relaxed);
    s.total_work += w;
    s.makespan = std::max(s.makespan, w);
    s.total_hops += c.hops.load(std::memory_order_relaxed);
  }
  s.hops_per_remote = s.remote_msgs > 0
                          ? static_cast<double>(s.total_hops) /
                                static_cast<double>(s.remote_msgs)
                          : 0.0;
  s.mean_tasks = static_cast<double>(s.total_tasks) /
                 static_cast<double>(n);
  s.imbalance = s.mean_tasks > 0.0
                    ? static_cast<double>(s.max_tasks) / s.mean_tasks
                    : 0.0;
  const double mean_work = static_cast<double>(s.total_work) /
                           static_cast<double>(n);
  s.work_imbalance =
      mean_work > 0.0 ? static_cast<double>(s.makespan) / mean_work : 0.0;
  s.virtual_speedup = s.makespan > 0
                          ? static_cast<double>(s.total_work) /
                                static_cast<double>(s.makespan)
                          : 0.0;
  return s;
}

}  // namespace motif::rt
