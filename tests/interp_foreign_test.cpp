// The multilingual approach end-to-end (Section 2.1): low-level C++
// kernels registered as foreign procedures, driven by high-level motif
// programs — culminating in the paper's actual application: multiple
// sequence alignment run through the Strand-level Tree-Reduce-2 motif
// with a C++ align-node.
#include <gtest/gtest.h>

#include <functional>
#include <mutex>

#include "align/align.hpp"
#include "interp/interp.hpp"
#include "term/parser.hpp"
#include "transform/tree.hpp"

namespace in = motif::interp;
namespace al = motif::align;
namespace tf = motif::transform;
using in::Interp;
using in::InterpOptions;
using motif::term::parse_term;
using motif::term::Program;
using motif::term::Term;

namespace {
InterpOptions nodes(std::uint32_t n) {
  InterpOptions o;
  o.nodes = n;
  o.workers = 2;
  return o;
}
}  // namespace

TEST(Foreign, SimpleKernelComputes) {
  Interp i(Program::parse("go(X,Y) :- cube(X,Y)."), nodes(2));
  i.register_foreign("cube", 2, 1, [](const in::ForeignCall& c) {
    const auto v = c.args[0].int_value();
    return c.unify(c.args[1], Term::integer(v * v * v));
  });
  EXPECT_EQ(i.run_query("go(5,Y)").first.arg(1).int_value(), 125);
}

TEST(Foreign, SuspendsUntilInputBound) {
  Interp i(Program::parse(
      "go(Y) :- cube(X,Y), supply(X).\n"
      "supply(X) :- X := 3."),
      nodes(2));
  i.register_foreign("cube", 2, 1, [](const in::ForeignCall& c) {
    const auto v = c.args[0].int_value();
    return c.unify(c.args[1], Term::integer(v * v * v));
  });
  auto [g, r] = i.run_query("go(Y)");
  EXPECT_EQ(g.arg(0).int_value(), 27);
}

TEST(Foreign, SuspendsOnPartiallyGroundInput) {
  // Input is a structure containing an unbound variable: the foreign
  // call waits until it is fully ground.
  Interp i(Program::parse(
      "go(Y) :- pairsum(p(1,X),Y), supply(X).\n"
      "supply(X) :- X := 9."),
      nodes(2));
  i.register_foreign("pairsum", 2, 1, [](const in::ForeignCall& c) {
    const Term p = c.args[0].deref();
    return c.unify(c.args[1], Term::integer(p.arg(0).int_value() +
                                            p.arg(1).int_value()));
  });
  EXPECT_EQ(i.run_query("go(Y)").first.arg(0).int_value(), 10);
}

TEST(Foreign, FailureRaisesError) {
  Interp i(Program::parse("go :- nope(1)."), nodes(2));
  i.register_foreign("nope", 1, 1,
                     [](const in::ForeignCall&) { return false; });
  EXPECT_THROW(i.run(parse_term("go")), in::InterpError);
}

TEST(Foreign, CollisionsRejected) {
  Interp i(Program::parse("p(1)."), nodes(2));
  EXPECT_THROW(
      i.register_foreign("p", 1, 1,
                         [](const in::ForeignCall&) { return true; }),
      in::InterpError);
  i.register_foreign("q", 1, 1,
                     [](const in::ForeignCall&) { return true; });
  EXPECT_THROW(
      i.register_foreign("q", 1, 1,
                         [](const in::ForeignCall&) { return true; }),
      in::InterpError);
  EXPECT_THROW(
      i.register_foreign("length", 2, 1,
                         [](const in::ForeignCall&) { return true; }),
      in::InterpError);
}

TEST(Foreign, RegisteringAfterRunIsRejected) {
  // Goals read the procedure table without a lock, so it is frozen once
  // run() has started.
  Interp i(Program::parse("go."), nodes(2));
  i.run(parse_term("go"));
  EXPECT_THROW(
      i.register_foreign("late", 1, 1,
                         [](const in::ForeignCall&) { return true; }),
      in::InterpError);
}

TEST(Foreign, MsaThroughStrandTreeReduce2) {
  // The full paper stack: synthetic RNA family, the Tree-Reduce-2 motif
  // produced by Server ∘ TreeReduce2, the user's eval delegating to a
  // foreign C++ align-node over opaque profile handles.
  auto fam = al::synthetic_family(12, 120, 4242);

  // Opaque profile registry shared with the foreign kernel.
  std::mutex reg_m;
  std::vector<al::ProfilePtr> registry;
  auto put = [&](al::ProfilePtr p) {
    std::lock_guard l(reg_m);
    registry.push_back(std::move(p));
    return static_cast<std::int64_t>(registry.size() - 1);
  };
  auto get = [&](const Term& handle) {
    std::lock_guard l(reg_m);
    return registry[static_cast<std::size_t>(handle.arg(0).int_value())];
  };

  // The guide tree as a term with $prof handles at the leaves.
  std::function<std::string(const motif::Tree<int, char>::Ptr&)> emit =
      [&](const motif::Tree<int, char>::Ptr& t) -> std::string {
    if (t->is_leaf()) {
      auto id = put(std::make_shared<const al::Profile>(
          fam.sequences[static_cast<std::size_t>(t->value())]));
      return "leaf('$prof'(" + std::to_string(id) + "))";
    }
    return "tree(align," + emit(t->left()) + "," + emit(t->right()) + ")";
  };
  const std::string tree_src = emit(fam.guide);

  Program user = Program::parse(
      "eval(align, L, R, V) :- align_node(L, R, V).");
  Program full = tf::tree_reduce2_full_motif().apply(user);

  Interp interp(full, nodes(4));
  interp.register_foreign(
      "align_node", 3, 2, [&](const in::ForeignCall& c) {
        auto merged = std::make_shared<const al::Profile>(
            al::align_profiles(*get(c.args[0].deref()),
                               *get(c.args[1].deref())));
        auto id = put(std::move(merged));
        return c.unify(c.args[2],
                       Term::compound("$prof", {Term::integer(id)}));
      });

  auto [goal, r] =
      interp.run_query("create(4, start(" + tree_src + ",Result))");
  EXPECT_FALSE(r.deadlocked())
      << (r.stuck_goals.empty() ? "-" : r.stuck_goals[0]);

  const Term result = goal.arg(1).arg(1).deref();
  ASSERT_TRUE(result.is_compound());
  ASSERT_EQ(result.functor(), "$prof");
  auto final_profile = get(result);
  EXPECT_EQ(final_profile->depth(), 12u);

  // Must equal the native pipeline's alignment exactly.
  motif::rt::Machine mach({.nodes = 4, .workers = 2});
  auto native = al::progressive_msa(mach, fam.sequences, fam.guide,
                                    al::MsaSchedule::Sequential);
  EXPECT_EQ(final_profile->length(), native.profile.length());
  EXPECT_EQ(final_profile->consensus(), native.profile.consensus());
}
