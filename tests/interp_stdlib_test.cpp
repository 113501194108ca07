// The high-level standard library, including the concurrent quicksort,
// plus interpreter stress tests (deep cross-node recursion, port storms,
// suspension floods).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "interp/interp.hpp"
#include "interp/stdlib.hpp"
#include "term/parser.hpp"

namespace in = motif::interp;
using in::Interp;
using in::InterpOptions;
using motif::term::parse_term;
using motif::term::Program;
using motif::term::Term;

namespace {
InterpOptions small() {
  InterpOptions o;
  o.nodes = 2;
  o.workers = 2;
  return o;
}

Interp lib_interp(const std::string& extra = "") {
  return Interp(Program::parse(extra).linked_with(in::stdlib()), small());
}

std::string int_list(const std::vector<int>& xs) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(xs[i]);
  }
  return s + "]";
}
}  // namespace

TEST(Stdlib, Append) {
  auto i = lib_interp();
  auto [g, r] = i.run_query("append([1,2],[3,4],Z)");
  EXPECT_TRUE(g.arg(2) == parse_term("[1,2,3,4]"));
}

TEST(Stdlib, AppendEmptyCases) {
  auto i = lib_interp();
  EXPECT_TRUE(i.run_query("append([],[a],Z)").first.arg(2) ==
              parse_term("[a]"));
  EXPECT_TRUE(i.run_query("append([a],[],Z)").first.arg(2) ==
              parse_term("[a]"));
  EXPECT_TRUE(i.run_query("append([],[],Z)").first.arg(2).is_nil());
}

TEST(Stdlib, AppendStreamsIncrementally) {
  // append with an unbound first list produces output as input arrives.
  auto i = lib_interp(
      "go(Z) :- append(Xs, [end], Z), feed(Xs).\n"
      "feed(Xs) :- Xs := [1|Xs1], Xs1 := [2|Xs2], Xs2 := [].");
  auto [g, r] = i.run_query("go(Z)");
  EXPECT_TRUE(g.arg(0) == parse_term("[1,2,end]"));
}

TEST(Stdlib, Reverse) {
  auto i = lib_interp();
  EXPECT_TRUE(i.run_query("reverse([1,2,3],Z)").first.arg(1) ==
              parse_term("[3,2,1]"));
  EXPECT_TRUE(i.run_query("reverse([],Z)").first.arg(1).is_nil());
}

TEST(Stdlib, LenSumMax) {
  auto i = lib_interp();
  EXPECT_EQ(i.run_query("len([a,b,c],N)").first.arg(1).int_value(), 3);
  EXPECT_EQ(i.run_query("sum_list([1,2,3,4],S)").first.arg(1).int_value(),
            10);
  EXPECT_EQ(i.run_query("max_list([3,9,2,9,1],M)").first.arg(1).int_value(),
            9);
  EXPECT_EQ(i.run_query("max_list([7],M)").first.arg(1).int_value(), 7);
}

TEST(Stdlib, NthAndLast) {
  auto i = lib_interp();
  EXPECT_EQ(i.run_query("nth(2,[a,b,c],Y)").first.arg(2).functor(), "b");
  EXPECT_EQ(i.run_query("nth(1,[a,b],Y)").first.arg(2).functor(), "a");
  EXPECT_EQ(i.run_query("last([x,y,z],Y)").first.arg(1).functor(), "z");
  EXPECT_EQ(i.run_query("last([solo],Y)").first.arg(1).functor(), "solo");
}

TEST(Stdlib, QsortSmall) {
  auto i = lib_interp();
  EXPECT_TRUE(i.run_query("qsort([3,1,2],S)").first.arg(1) ==
              parse_term("[1,2,3]"));
  EXPECT_TRUE(i.run_query("qsort([],S)").first.arg(1).is_nil());
  EXPECT_TRUE(i.run_query("qsort([5],S)").first.arg(1) ==
              parse_term("[5]"));
  EXPECT_TRUE(i.run_query("qsort([2,2,1,2],S)").first.arg(1) ==
              parse_term("[1,2,2,2]"));
}

TEST(Stdlib, QsortRandomListsMatchStdSort) {
  motif::rt::Rng rng(7);
  for (int round = 0; round < 5; ++round) {
    std::vector<int> xs(40);
    for (auto& x : xs) x = static_cast<int>(rng.below(100));
    auto sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    auto i = lib_interp();
    auto [g, r] = i.run_query("qsort(" + int_list(xs) + ",S)");
    EXPECT_TRUE(g.arg(1) == parse_term(int_list(sorted)))
        << "round " << round;
  }
}

TEST(Stdlib, QsortDescendingWorstCase) {
  std::vector<int> xs(60);
  for (int k = 0; k < 60; ++k) xs[static_cast<std::size_t>(k)] = 60 - k;
  std::vector<int> sorted(60);
  for (int k = 0; k < 60; ++k) sorted[static_cast<std::size_t>(k)] = k + 1;
  auto i = lib_interp();
  auto [g, r] = i.run_query("qsort(" + int_list(xs) + ",S)");
  EXPECT_TRUE(g.arg(1) == parse_term(int_list(sorted)));
}

// ---- stress -----------------------------------------------------------------

TEST(InterpStress, DeepCrossNodeRecursion) {
  InterpOptions o;
  o.nodes = 8;
  o.workers = 2;
  Interp i(Program::parse(
      "bounce(0, R) :- R := done.\n"
      "bounce(N, R) :- N > 0 | N1 is N - 1, bounce(N1, R)@random."),
      o);
  auto [g, r] = i.run_query("bounce(20000, R)");
  EXPECT_EQ(g.arg(1).functor(), "done");
  EXPECT_GT(r.load.remote_msgs, 10000u);
}

TEST(InterpStress, WideFanout) {
  Interp i(Program::parse(
      "fan(0, L) :- L := [].\n"
      "fan(N, L) :- N > 0 | L := [X|L1], leafwork(X)@random, "
      "N1 is N - 1, fan(N1, L1).\n"
      "leafwork(X) :- X := ok."),
      {.nodes = 8, .workers = 2, .seed = 1});
  auto [g, r] = i.run_query("fan(5000, L)");
  auto xs = g.arg(1).proper_list();
  ASSERT_TRUE(xs.has_value());
  EXPECT_EQ(xs->size(), 5000u);
  EXPECT_FALSE(r.deadlocked());
}

TEST(InterpStress, SuspensionFlood) {
  // 2000 consumers suspend on one variable; a single producer wakes all.
  Interp i(Program::parse(
      "go(N, V) :- spawn_waiters(N, V, Ls), release(V), check(Ls).\n"
      "spawn_waiters(0, _, Ls) :- Ls := [].\n"
      "spawn_waiters(N, V, Ls) :- N > 0 | Ls := [L|Ls1], waiter(V, L), "
      "N1 is N - 1, spawn_waiters(N1, V, Ls1).\n"
      "waiter(V, L) :- data(V) | L := woke.\n"
      "release(V) :- V := go_signal.\n"
      "check([]).\n"
      "check([L|Ls]) :- data(L) | check(Ls)."),
      small());
  auto [g, r] = i.run_query("go(2000, V)");
  EXPECT_FALSE(r.deadlocked());
}

TEST(InterpStress, PortMessageStorm) {
  // Many producers hammer one port; the consumer must see every message.
  Interp i(Program::parse(
      "go(N, Total) :- make_ports(1, [P], [In]), make_tuple([P], DT), "
      "spawn_senders(N, DT), count(In, N, 0, Total).\n"
      "spawn_senders(0, _).\n"
      "spawn_senders(N, DT) :- N > 0 | "
      "send_one(DT)@random, N1 is N - 1, spawn_senders(N1, DT).\n"
      "send_one(DT) :- distribute(1, ping, DT).\n"
      "count(_, 0, Acc, Total) :- Total := Acc.\n"
      "count([ping|In], N, Acc, Total) :- N > 0 | "
      "N1 is N - 1, Acc1 is Acc + 1, count(In, N1, Acc1, Total)."),
      {.nodes = 8, .workers = 2, .seed = 3});
  auto [g, r] = i.run_query("go(3000, Total)");
  EXPECT_EQ(g.arg(1).int_value(), 3000);
  EXPECT_FALSE(r.deadlocked());
}

TEST(InterpStress, ManySmallQueriesOnOneInterp) {
  auto i = lib_interp();
  for (int k = 0; k < 200; ++k) {
    auto [g, r] = i.run_query("sum_list([" + std::to_string(k) + "," +
                              std::to_string(k) + "],S)");
    EXPECT_EQ(g.arg(1).int_value(), 2 * k);
  }
}
