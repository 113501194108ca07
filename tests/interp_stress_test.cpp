// Contended interpreter run: the 128-leaf @random tree reduce of
// bench_hll_overhead (E5) on four virtual nodes and three workers,
// repeated. Every suspension formats its goal and reads the suspending
// variable's name while other workers bind variables of the same goal,
// so a Term accessor that re-dereferences a snapshot shows up here as an
// aborted run or a wrong sum.
#include "interp/interp.hpp"

#include <gtest/gtest.h>

#include <string>

namespace in = motif::interp;
using motif::term::Program;

namespace {

std::string tree(std::size_t leaves) {
  if (leaves == 1) return "leaf(1)";
  return "tree('+'," + tree(leaves / 2) + "," + tree(leaves - leaves / 2) +
         ")";
}

}  // namespace

TEST(InterpStress, RandomTreeReduceSumsOnEveryRun) {
  constexpr std::size_t kLeaves = 128;
  constexpr int kRuns = 500;
  const auto program = Program::parse(
      "eval('+',L,R,Value) :- Value is L + R.\n"
      "reduce(tree(V,L,R),Value) :- reduce(R,RV)@random, reduce(L,LV), "
      "eval(V,LV,RV,Value).\n"
      "reduce(leaf(L),Value) :- Value := L.\n");
  const std::string goal = "reduce(" + tree(kLeaves) + ",V)";
  int suspended_runs = 0;
  for (int run = 0; run < kRuns; ++run) {
    in::InterpOptions opts;
    opts.nodes = 4;
    opts.workers = 3;
    opts.seed = static_cast<std::uint64_t>(run) + 1;
    in::Interp interp(program, opts);
    auto [g, r] = interp.run_query(goal);
    ASSERT_FALSE(r.deadlocked()) << "run " << run;
    ASSERT_EQ(g.arg(1).int_value(), static_cast<long>(kLeaves))
        << "run " << run;
    if (r.suspensions > 0) ++suspended_runs;
  }
  // The race needs suspensions; a run with none exercised nothing.
  EXPECT_GT(suspended_runs, kRuns / 2);
}
