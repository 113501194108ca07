// Machine-readable bench output: one JSON object per line (JSONL).
//
// Every bench binary emits, per completed benchmark case, a line of the
// form
//
//   {"bench":"bench_memory","case":"TR2","iterations":1,
//    "peak_MiB":1.25,"procs":4,"trace":"/tmp/t.json"}
//
// to the file named by the MOTIF_BENCH_JSON environment variable
// (appended, so a whole suite accumulates into one JSONL file) or to
// stderr when unset — keeping google-benchmark's human console output on
// stdout untouched. The perf trajectory (BENCH_*.json) and EXPERIMENTS.md
// consume these lines; the schema is documented in EXPERIMENTS.md.
// Iteration-count calibration reruns each emit a line; consumers take the
// last line per (bench, case, parameter counters).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace motif::bench {

/// Builds one JSON object; field insertion order is preserved.
class JsonLine {
 public:
  JsonLine& field(std::string_view key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonLine& field(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& field(std::string_view key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& field(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }

  std::string str() const { return "{" + body_ + "}"; }

  /// Appends the line to $MOTIF_BENCH_JSON, or stderr when unset.
  void emit() const {
    const std::string line = str() + "\n";
    if (const char* path = std::getenv("MOTIF_BENCH_JSON")) {
      if (std::FILE* f = std::fopen(path, "a")) {
        std::fwrite(line.data(), 1, line.size(), f);
        std::fclose(f);
        return;
      }
    }
    std::fwrite(line.data(), 1, line.size(), stderr);
  }

 private:
  JsonLine& raw(std::string_view key, std::string_view value) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_.append(key);
    body_ += "\":";
    body_.append(value);
    return *this;
  }

  std::string body_;
};

/// A kIsRate counter (SetItemsProcessed, SetBytesProcessed, ...) holds a
/// total: google-benchmark divides it by the run time only when it prints.
/// The JSONL line names it for what it holds: "items_per_second" becomes
/// "items_total", "posts_per_s" becomes "posts_total".
inline std::string total_name(std::string_view rate_name) {
  return std::string(rate_name.substr(0, rate_name.find("_per_"))) + "_total";
}

/// Emits the standard per-case line: bench + case names, iteration count,
/// every user counter the case recorded (rate counters under their
/// total_name), and (when nonempty) the path of
/// a trace file written for this case. Call at the end of a benchmark
/// function, after the counters are set.
inline void report_case(const benchmark::State& state, std::string_view bench,
                        std::string_view case_name,
                        std::string_view trace_path = {}) {
  JsonLine line;
  line.field("bench", bench)
      .field("case", case_name)
      .field("iterations", static_cast<std::uint64_t>(state.iterations()));
  for (const auto& [name, counter] : state.counters) {
    line.field(counter.flags & benchmark::Counter::kIsRate ? total_name(name)
                                                           : name,
               static_cast<double>(counter.value));
  }
  if (!trace_path.empty()) line.field("trace", trace_path);
  line.emit();
}

/// MOTIF_BENCH_REPORT(state): report_case with names derived from the
/// source file ("bench/bench_server.cpp" -> "bench_server") and the
/// enclosing function ("BM_ServerThroughput" -> "ServerThroughput").
inline void report_case_auto(const benchmark::State& state,
                             std::string_view file, std::string_view func,
                             std::string_view trace_path = {}) {
  const auto slash = file.find_last_of("/\\");
  if (slash != std::string_view::npos) file.remove_prefix(slash + 1);
  if (file.size() > 4 && file.substr(file.size() - 4) == ".cpp") {
    file.remove_suffix(4);
  }
  if (func.rfind("BM_", 0) == 0) func.remove_prefix(3);
  report_case(state, file, func, trace_path);
}

}  // namespace motif::bench

#define MOTIF_BENCH_REPORT(state) \
  ::motif::bench::report_case_auto(state, __FILE__, __func__)
