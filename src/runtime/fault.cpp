#include "runtime/fault.hpp"

#include <utility>

#include "runtime/rng.hpp"

namespace motif::rt {

namespace {

/// One uniform double in [0,1) from a (seed, sender, ordinal) triple.
/// Mixed through splitmix64 twice so neighbouring ordinals decorrelate.
double decision_uniform(std::uint64_t seed, NodeId from, std::uint64_t nth) {
  std::uint64_t x = seed ^ (0x9E3779B97F4A7C15ull * (from + 1));
  (void)splitmix64(x);
  x ^= nth * 0xBF58476D1CE4E5B9ull;
  const std::uint64_t bits = splitmix64(x);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

PostFault FaultPlan::post_fault(NodeId from, std::uint64_t nth) const {
  if (drop <= 0.0 && duplicate <= 0.0 && delay <= 0.0) {
    return PostFault::None;
  }
  const double u = decision_uniform(seed, from, nth);
  if (u < drop) return PostFault::Drop;
  if (u < drop + duplicate) return PostFault::Duplicate;
  if (u < drop + duplicate + delay) return PostFault::Delay;
  return PostFault::None;
}

FaultPlan FaultPlan::reseeded(std::uint64_t attempt) const {
  FaultPlan p = *this;
  std::uint64_t x = seed + 0xA7C15EEDull * (attempt + 1);
  p.seed = splitmix64(x);
  return p;
}

FaultPlan FaultPlan::chaos(std::uint64_t seed) {
  FaultPlan p;
  p.seed = seed;
  p.drop = 0.02;
  p.duplicate = 0.02;
  p.delay = 0.05;
  return p;
}

const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::Completed: return "completed";
    case RunStatus::TaskFailed: return "task-failed";
    case RunStatus::Stalled: return "stalled";
    case RunStatus::DeadlineExceeded: return "deadline-exceeded";
    case RunStatus::NodeLost: return "node-lost";
  }
  return "unknown";
}

std::string RunOutcome::to_string() const {
  std::string s = rt::to_string(status);
  if (!lost_nodes.empty()) {
    s += " (lost:";
    for (NodeId n : lost_nodes) {
      s += ' ';  // not " " + ...: GCC 12 misreports -Wrestrict on it at -O3
      s += std::to_string(n);
    }
    s += ")";
  }
  if (faults.total() != 0) {
    s += " [faults: " + std::to_string(faults.total()) + "]";
  }
  if (!error_message.empty()) s += ": " + error_message;
  if (!blocked_on.empty()) s += " (waiting on " + blocked_on + ")";
  return s;
}

void mark_unfinished(RunOutcome& o, const char* awaited) {
  if (o.status == RunStatus::TaskFailed) return;
  if (o.status == RunStatus::Completed) o.status = RunStatus::Stalled;
  if (!o.lost_nodes.empty()) o.status = RunStatus::NodeLost;
  o.blocked_on = awaited;
}

RunIncomplete::RunIncomplete(RunOutcome o)
    : std::runtime_error(o.to_string()),
      outcome_(std::make_shared<const RunOutcome>(std::move(o))) {}

}  // namespace motif::rt
