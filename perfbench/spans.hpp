// Spans recorded by the benchmark around its own calls into the layers
// (name, start, end, parent span, job id), kept in memory and written out
// as a Chrome trace when the run ends; plus the two computations the
// per-layer report needs: self time and the critical path.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< enclosing span, -1 for a root
  std::int64_t job = -1;
  std::string name;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  /// Spans whose outputs this span consumed (data dependence, -1 = none):
  /// an align-node span depends on the spans that built its two inputs.
  std::int64_t deps[2] = {-1, -1};

  double ms() const { return static_cast<double>(t1_ns - t0_ns) / 1e6; }
};

/// Thread-safe span store; worker threads add spans concurrently.
class SpanLog {
 public:
  std::int64_t next_id() {
    return next_.fetch_add(1, std::memory_order_relaxed);
  }

  void add(Span s) {
    std::lock_guard<std::mutex> lk(m_);
    spans_.push_back(std::move(s));
  }

  /// Spans recorded since the last take(), in completion order.
  std::vector<Span> take() {
    std::lock_guard<std::mutex> lk(m_);
    std::vector<Span> out;
    out.swap(spans_);
    return out;
  }

 private:
  std::mutex m_;
  std::vector<Span> spans_;
  std::atomic<std::int64_t> next_{1};
};

/// A span on the calling thread; spans opened while it is live on the
/// same thread become its children. A null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t job)
      : log_(log), outer_(current_) {
    s_.t0_ns = now_ns();
    if (log_ == nullptr) return;
    s_.id = log_->next_id();
    s_.parent = outer_;
    s_.job = job;
    s_.name = name;
    current_ = s_.id;
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    s_.t1_ns = now_ns();
    current_ = outer_;
    log_->add(std::move(s_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return s_.id; }

 private:
  static inline thread_local std::int64_t current_ = -1;
  SpanLog* log_;
  std::int64_t outer_;
  Span s_;
};

/// Span duration minus the part of it its children cover (their union,
/// clipped to the span), in ms. Children may overlap: align-node spans of
/// one job run on several workers at once.
inline double self_ms(const Span& s,
                      const std::vector<const Span*>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span* c : children) {
    const std::int64_t a = std::max(c->t0_ns, s.t0_ns);
    const std::int64_t b = std::min(c->t1_ns, s.t1_ns);
    if (a < b) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0, end = s.t0_ns;
  for (const auto& [a, b] : iv) {
    const std::int64_t from = std::max(a, end);
    if (b > from) covered += b - from;
    end = std::max(end, b);
  }
  return static_cast<double>(s.t1_ns - s.t0_ns - covered) / 1e6;
}

/// Self time summed per span name over `spans`.
inline std::map<std::string, double> self_ms_by_name(
    const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::vector<const Span*>> kids;
  for (const Span& s : spans) kids[s.parent].push_back(&s);
  std::map<std::string, double> out;
  for (const Span& s : spans) out[s.name] += self_ms(s, kids[s.id]);
  return out;
}

/// Longest chain of data-dependent spans (sum of durations along `deps`
/// edges), in ms: for a tree reduction, the leaf-to-root chain of node
/// evaluations that bounds the job's latency however many workers run.
inline double critical_path_ms(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  std::unordered_map<std::int64_t, double> memo;
  std::function<double(const Span&)> chain = [&](const Span& s) -> double {
    if (auto it = memo.find(s.id); it != memo.end()) return it->second;
    double longest = 0.0;
    for (std::int64_t d : s.deps) {
      if (auto it = by_id.find(d); it != by_id.end()) {
        longest = std::max(longest, chain(*it->second));
      }
    }
    return memo[s.id] = s.ms() + longest;
  };
  double best = 0.0;
  for (const Span& s : spans) best = std::max(best, chain(s));
  return best;
}

/// Writes `spans` as Chrome trace-event JSON (one complete event each;
/// the job id is the track). Returns false when the file cannot be written.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"job\":%lld}}",
                 first ? "" : ",", s.name.c_str(),
                 static_cast<long long>(s.job),
                 static_cast<double>(s.t0_ns) / 1e3,
                 static_cast<double>(s.t1_ns - s.t0_ns) / 1e3,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.job));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
