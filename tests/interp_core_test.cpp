// Core reduction semantics of the interpreter: matching, guards,
// suspension, commit, placement, failure, deadlock detection.
#include "interp/interp.hpp"

#include <gtest/gtest.h>

#include <memory>

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
}  // namespace

TEST(Interp, FactReduces) {
  Interp i(Program::parse("p(1)."), small());
  auto [goal, r] = i.run_query("p(1)");
  EXPECT_EQ(r.reductions, 1u);
  EXPECT_FALSE(r.deadlocked());
}

TEST(Interp, AssignBindsCallerVariable) {
  Interp i(Program::parse("p(X) :- X := done."), small());
  auto [goal, r] = i.run_query("p(Out)");
  EXPECT_EQ(goal.arg(0).functor(), "done");
}

TEST(Interp, ArithmeticAssign) {
  Interp i(Program::parse("p(N,X) :- X is N * 2 + 1."), small());
  auto [goal, r] = i.run_query("p(20,Out)");
  EXPECT_EQ(goal.arg(1).int_value(), 41);
}

TEST(Interp, ColonEqualsDispatchesArithVsData) {
  Interp i(Program::parse(
      "p(N,A,B,C) :- A := N - 1, B := [N|T], T := [], C := sync."),
      small());
  auto [goal, r] = i.run_query("p(5,A,B,C)");
  EXPECT_EQ(goal.arg(1).int_value(), 4);
  auto lst = goal.arg(2).proper_list();
  ASSERT_TRUE(lst);
  EXPECT_EQ((*lst)[0].int_value(), 5);
  EXPECT_EQ(goal.arg(3).functor(), "sync");
}

TEST(Interp, RuleSelectionByStructure) {
  Interp i(Program::parse(
      "classify(leaf(_),R) :- R := is_leaf.\n"
      "classify(tree(_,_,_),R) :- R := is_tree."),
      small());
  auto [g1, r1] = i.run_query("classify(leaf(7),R)");
  EXPECT_EQ(g1.arg(1).functor(), "is_leaf");
  auto [g2, r2] = i.run_query("classify(tree(a,b,c),R)");
  EXPECT_EQ(g2.arg(1).functor(), "is_tree");
}

TEST(Interp, GuardSelectsRule) {
  Interp i(Program::parse(
      "sign(N,S) :- N > 0 | S := pos.\n"
      "sign(N,S) :- N < 0 | S := neg.\n"
      "sign(0,S) :- S := zero."),
      small());
  EXPECT_EQ(i.run_query("sign(5,S)").first.arg(1).functor(), "pos");
  EXPECT_EQ(i.run_query("sign(-5,S)").first.arg(1).functor(), "neg");
  EXPECT_EQ(i.run_query("sign(0,S)").first.arg(1).functor(), "zero");
}

TEST(Interp, NoRuleAppliesIsError) {
  Interp i(Program::parse("p(1)."), small());
  EXPECT_THROW(i.run(parse_term("p(2)")), in::InterpError);
}

TEST(Interp, UndefinedProcessIsError) {
  Interp i(Program::parse("p(1)."), small());
  EXPECT_THROW(i.run(parse_term("q(1)")), in::InterpError);
}

TEST(Interp, DoubleAssignIsError) {
  Interp i(Program::parse("p(X) :- X := a, X := b."), small());
  EXPECT_THROW(i.run(parse_term("p(Y)")), in::InterpError);
}

TEST(Interp, AssignSameValueTolerated) {
  Interp i(Program::parse("p(X) :- X := a, X := a."), small());
  EXPECT_NO_THROW(i.run(parse_term("p(Y)")));
}

TEST(Interp, HeadMatchingSuspendsOnUnboundInput) {
  // q binds X only after p has been tried; p must suspend then resume.
  Interp i(Program::parse(
      "go(R) :- p(X,R), q(X).\n"
      "p(1,R) :- R := got_one.\n"
      "q(X) :- X := 1."),
      small());
  auto [goal, r] = i.run_query("go(R)");
  EXPECT_EQ(goal.arg(0).functor(), "got_one");
  EXPECT_FALSE(r.deadlocked());
}

TEST(Interp, GuardSuspendsUntilBound) {
  // `supply` is posted to the node queue while `check` tail-executes
  // first, so check reliably sees N unbound and suspends.
  Interp i(Program::parse(
      "go(R) :- supply(N), check(N,R).\n"
      "check(N,R) :- N > 10 | R := big.\n"
      "check(N,R) :- N =< 10 | R := small.\n"
      "supply(N) :- N := 42."),
      small());
  auto [goal, r] = i.run_query("go(R)");
  EXPECT_EQ(goal.arg(0).functor(), "big");
  EXPECT_GE(r.suspensions, 1u);
}

TEST(Interp, DeadlockDetected) {
  Interp i(Program::parse("p(X) :- X > 0 | q.\nq."), small());
  auto r = i.run(parse_term("p(Y)"));
  EXPECT_TRUE(r.deadlocked());
  EXPECT_EQ(r.still_suspended, 1u);
  ASSERT_FALSE(r.stuck_goals.empty());
  EXPECT_NE(r.stuck_goals[0].find("p("), std::string::npos);
  // The report names the dataflow variable the goal is blocked on.
  EXPECT_NE(r.stuck_goals[0].find("(waiting on "), std::string::npos)
      << r.stuck_goals[0];
}

TEST(Interp, BindingAfterDestructionIsSafe) {
  // The caller's goal outlives the interpreter, and so does the waiter of
  // the deadlocked p(Y) on Y. Binding Y afterwards runs that waiter, which
  // must find the interpreter gone and do nothing.
  Term goal = parse_term("p(Y)");
  {
    Interp i(Program::parse("p(X) :- X > 0 | q.\nq."), small());
    EXPECT_TRUE(i.run(goal).deadlocked());
  }
  goal.arg(0).bind(Term::integer(1));
  EXPECT_EQ(goal.arg(0).int_value(), 1);
}

TEST(Interp, DroppedDeadlockedGoalFreesEveryCell) {
  // tag/1 hangs a token on its argument's cell, so a token lives as long
  // as that cell. The goal deadlocks with r(X, Z) suspended on the
  // caller's X and holding the interpreter's own Z. Once the interpreter
  // and the goal are dropped, no cell holds a token, while the process
  // runs on.
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> alive = token;
  {
    Term goal = parse_term("p(Y)");
    Interp i(Program::parse("p(X) :- tag(X), tag(Z), r(X, Z).\n"
                            "r(X, Z) :- X > 0 | Z := 1."),
             small());
    i.register_foreign("tag", 1, 0, [token](const in::ForeignCall& c) {
      c.args[0].when_bound([token] {});
      return true;
    });
    token.reset();
    EXPECT_TRUE(i.run(goal).deadlocked());
    EXPECT_EQ(alive.use_count(), 3);  // the procedure and two cells
  }
  EXPECT_TRUE(alive.expired());
}

TEST(Interp, ProgramRedefiningABuiltinIsRejected) {
  // A clause for a builtin's name/arity could never run: the builtin
  // always wins. The interpreter refuses the program instead.
  EXPECT_THROW(Interp(Program::parse("length(X, N) :- N := 0."), small()),
               in::InterpError);
  EXPECT_THROW(Interp(Program::parse("go :- true.\ntrue."), small()),
               in::InterpError);
  // Same name, other arity: an ordinary user process.
  Interp i(Program::parse("length(X) :- X := 0."), small());
  EXPECT_EQ(i.run_query("length(N)").first.arg(0).int_value(), 0);
}

TEST(Interp, OtherwiseCommitsWhenEarlierRulesFail) {
  Interp i(Program::parse(
      "p(1,R) :- R := one.\n"
      "p(_,R) :- otherwise | R := other."),
      small());
  EXPECT_EQ(i.run_query("p(1,R)").first.arg(1).functor(), "one");
  EXPECT_EQ(i.run_query("p(9,R)").first.arg(1).functor(), "other");
}

TEST(Interp, OtherwiseBlockedBySuspendedEarlierRule) {
  // With X unbound, rule 1 suspends, so otherwise must NOT commit; the
  // process deadlocks (nothing ever binds X).
  Interp i(Program::parse(
      "p(1,R) :- R := one.\n"
      "p(_,R) :- otherwise | R := other."),
      small());
  auto [goal, r] = i.run_query("p(X,R)");
  EXPECT_TRUE(r.deadlocked());
  EXPECT_FALSE(goal.arg(1).bound());
}

TEST(Interp, BodySpawnsRunConcurrently) {
  // Two producers feed one adder; completion requires real dataflow.
  Interp i(Program::parse(
      "go(R) :- make(3,A), make(4,B), add(A,B,R).\n"
      "make(N,X) :- X := N * 10.\n"
      "add(A,B,R) :- R is A + B."),
      small());
  EXPECT_EQ(i.run_query("go(R)").first.arg(0).int_value(), 70);
}

TEST(Interp, RecursionWithTailLoop) {
  Interp i(Program::parse(
      "count(0,Acc,R) :- R := Acc.\n"
      "count(N,Acc,R) :- N > 0 | Acc1 is Acc + 1, N1 is N - 1, "
      "count(N1,Acc1,R)."),
      small());
  auto [goal, r] = i.run_query("count(10000,0,R)");
  EXPECT_EQ(goal.arg(2).int_value(), 10000);
}

TEST(Interp, MetacallReducesBoundGoal) {
  Interp i(Program::parse(
      "apply(G) :- G.\n"
      "go(R) :- mk(G,R), apply(G).\n"
      "mk(G,R) :- G := hit(R).\n"
      "hit(R) :- R := yes."),
      small());
  EXPECT_EQ(i.run_query("go(R)").first.arg(0).functor(), "yes");
}

TEST(Interp, PlacementOnNumberedNode) {
  InterpOptions o;
  o.nodes = 4;
  o.workers = 2;
  Interp i(Program::parse(
      "go(A,B) :- where(A)@3, where(B)@1.\n"
      "where(N) :- current_node(N)."),
      o);
  auto [goal, r] = i.run_query("go(A,B)");
  EXPECT_EQ(goal.arg(0).int_value(), 3);
  EXPECT_EQ(goal.arg(1).int_value(), 1);
}

TEST(Interp, PlacementRandomStaysInRange) {
  InterpOptions o;
  o.nodes = 8;
  o.workers = 2;
  Interp i(Program::parse(
      "go([]) .\n"
      "go([V|Vs]) :- where(V)@random, go(Vs).\n"
      "where(N) :- current_node(N)."),
      o);
  auto [goal, r] = i.run_query("go([A,B,C,D,E,F,G,H,I,J])");
  auto vs = goal.arg(0).proper_list();
  for (const auto& v : *vs) {
    EXPECT_GE(v.int_value(), 1);
    EXPECT_LE(v.int_value(), 8);
  }
}

TEST(Interp, PlacementOutOfRangeIsError) {
  Interp i(Program::parse("go :- p@9.\np."), small());
  EXPECT_THROW(i.run(parse_term("go")), in::InterpError);
}

TEST(Interp, PlacementComputedFromExpression) {
  InterpOptions o;
  o.nodes = 4;
  o.workers = 2;
  Interp i(Program::parse(
      "go(V) :- pick(J), where(V)@J.\n"
      "pick(J) :- J := 1 + 1.\n"
      "where(N) :- current_node(N)."),
      o);
  EXPECT_EQ(i.run_query("go(V)").first.arg(0).int_value(), 2);
}

TEST(Interp, RepeatedHeadVariableRequiresEquality) {
  Interp i(Program::parse(
      "same(X,X,R) :- R := yes.\n"
      "same(_,_,R) :- otherwise | R := no."),
      small());
  EXPECT_EQ(i.run_query("same(3,3,R)").first.arg(2).functor(), "yes");
  EXPECT_EQ(i.run_query("same(3,4,R)").first.arg(2).functor(), "no");
}

TEST(Interp, StringAndTupleMatching) {
  Interp i(Program::parse(
      "p(\"key\",R) :- R := matched_string.\n"
      "p({A,B},R) :- R := {B,A}."),
      small());
  EXPECT_EQ(i.run_query("p(\"key\",R)").first.arg(1).functor(),
            "matched_string");
  auto [g, r] = i.run_query("p({1,2},R)");
  EXPECT_TRUE(g.arg(1) == parse_term("{2,1}"));
}

TEST(Interp, WriteGoesToSink) {
  Interp i(Program::parse("go :- writeln(hello), write(42)."), small());
  std::string seen;
  std::mutex m;
  i.set_output([&](const std::string& s) {
    std::lock_guard l(m);
    seen += s;
  });
  i.run(parse_term("go"));
  EXPECT_NE(seen.find("hello\n"), std::string::npos);
  EXPECT_NE(seen.find("42"), std::string::npos);
}

TEST(Interp, BodyComparisonActsAsAssertion) {
  Interp i(Program::parse("ok :- 1 < 2.\nbad :- 2 < 1."), small());
  EXPECT_NO_THROW(i.run(parse_term("ok")));
  EXPECT_THROW(i.run(parse_term("bad")), in::InterpError);
}

TEST(Interp, PerDefinitionReductionProfile) {
  Interp i(Program::parse(
      "go(N) :- loop(N).\n"
      "loop(0).\n"
      "loop(N) :- N > 0 | N1 is N - 1, loop(N1)."),
      small());
  auto r = i.run(parse_term("go(50)"));
  ASSERT_FALSE(r.by_definition.empty());
  // loop/1 dominates: 51 commits vs go/1's single commit.
  EXPECT_EQ(r.by_definition[0].first, "loop/1");
  EXPECT_EQ(r.by_definition[0].second, 51u);
  bool saw_go = false;
  for (const auto& [name, n] : r.by_definition) {
    if (name == "go/1") {
      saw_go = true;
      EXPECT_EQ(n, 1u);
    }
  }
  EXPECT_TRUE(saw_go);
}

TEST(Interp, LoadSummaryCountsRemoteMessages) {
  InterpOptions o;
  o.nodes = 4;
  o.workers = 1;
  Interp i(Program::parse(
      "go :- p@2, p@3, p@4.\n"
      "p."),
      o);
  auto r = i.run(parse_term("go"));
  EXPECT_GE(r.load.remote_msgs, 3u);
}
