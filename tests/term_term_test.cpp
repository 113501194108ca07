#include "term/term.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace t = motif::term;
using t::Term;

TEST(Term, DefaultIsNil) {
  Term x;
  EXPECT_TRUE(x.is_nil());
}

TEST(Term, AtomBasics) {
  Term a = Term::atom("foo");
  EXPECT_TRUE(a.is_atom());
  EXPECT_EQ(a.functor(), "foo");
  EXPECT_EQ(a.arity(), 0u);
  EXPECT_TRUE(a.ground());
}

TEST(Term, Numbers) {
  Term i = Term::integer(-7);
  Term f = Term::real(2.5);
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(f.is_float());
  EXPECT_TRUE(i.is_number());
  EXPECT_EQ(i.int_value(), -7);
  EXPECT_DOUBLE_EQ(f.float_value(), 2.5);
  EXPECT_DOUBLE_EQ(i.as_double(), -7.0);
  EXPECT_THROW(f.int_value(), std::logic_error);
}

TEST(Term, Strings) {
  Term s = Term::str("hello");
  EXPECT_TRUE(s.is_str());
  EXPECT_EQ(s.str_value(), "hello");
}

TEST(Term, CompoundAccess) {
  Term c = Term::compound("f", {Term::integer(1), Term::atom("a")});
  EXPECT_TRUE(c.is_compound());
  EXPECT_EQ(c.functor(), "f");
  EXPECT_EQ(c.arity(), 2u);
  EXPECT_EQ(c.arg(0).int_value(), 1);
  EXPECT_EQ(c.arg(1).functor(), "a");
  EXPECT_THROW(c.arg(2), std::out_of_range);
}

TEST(Term, CompoundWithNoArgsIsAtom) {
  Term c = Term::compound("f", {});
  EXPECT_TRUE(c.is_atom());
}

TEST(Term, ListsAndProperList) {
  Term l = Term::list({Term::integer(1), Term::integer(2), Term::integer(3)});
  EXPECT_TRUE(l.is_cons());
  auto xs = l.proper_list();
  ASSERT_TRUE(xs.has_value());
  ASSERT_EQ(xs->size(), 3u);
  EXPECT_EQ((*xs)[0].int_value(), 1);
  EXPECT_EQ((*xs)[2].int_value(), 3);
}

TEST(Term, ImproperListDetected) {
  Term v = Term::var("T");
  Term l = Term::list({Term::integer(1)}, v);
  EXPECT_FALSE(l.proper_list().has_value());
}

TEST(Term, TupleBasics) {
  Term tp = Term::tuple({Term::atom("a"), Term::integer(2)});
  EXPECT_TRUE(tp.is_tuple());
  EXPECT_EQ(tp.arity(), 2u);
  EXPECT_FALSE(tp.is_cons());
}

TEST(Term, VarBindAndDeref) {
  Term v = Term::var("X");
  EXPECT_TRUE(v.is_var());
  EXPECT_FALSE(v.bound());
  v.bind(Term::integer(5));
  EXPECT_TRUE(v.bound());
  EXPECT_EQ(v.deref().int_value(), 5);
  EXPECT_EQ(v.int_value(), 5);  // accessors deref
}

TEST(Term, DoubleBindThrows) {
  Term v = Term::var("X");
  v.bind(Term::integer(1));
  EXPECT_THROW(v.bind(Term::integer(2)), t::BindError);
}

TEST(Term, BindNonVarThrows) {
  Term a = Term::atom("a");
  EXPECT_THROW(a.bind(Term::integer(1)), t::BindError);
}

TEST(Term, VarVarAliasing) {
  Term x = Term::var("X"), y = Term::var("Y");
  x.bind(y);
  EXPECT_FALSE(x.bound());  // still a variable after deref
  y.bind(Term::atom("done"));
  EXPECT_TRUE(x.bound());
  EXPECT_EQ(x.functor(), "done");
}

TEST(Term, SelfAliasIsNoop) {
  Term x = Term::var("X"), y = Term::var("Y");
  x.bind(y);
  y.bind(x);  // X and Y alias; binding Y to X's representative is a no-op
  EXPECT_FALSE(x.bound());
  x.bind(Term::integer(3));
  EXPECT_EQ(y.int_value(), 3);
}

TEST(Term, LongAliasChainDerefs) {
  Term first = Term::var("V0");
  Term cur = first;
  for (int i = 1; i < 100; ++i) {
    std::string name = "V";  // not "V" + ...: a GCC 12 -O3 -Wrestrict misfire
    name += std::to_string(i);
    Term next = Term::var(name);
    cur.bind(next);
    cur = next;
  }
  cur.bind(Term::integer(42));
  EXPECT_EQ(first.int_value(), 42);
}

TEST(Term, WhenBoundFires) {
  Term v = Term::var("X");
  int fired = 0;
  v.when_bound([&] { ++fired; });
  EXPECT_EQ(fired, 0);
  v.bind(Term::atom("go"));
  EXPECT_EQ(fired, 1);
  v.when_bound([&] { ++fired; });  // already bound: inline
  EXPECT_EQ(fired, 2);
}

TEST(Term, WhenBoundOnNonVarFiresInline) {
  Term a = Term::atom("a");
  int fired = 0;
  a.when_bound([&] { ++fired; });
  EXPECT_EQ(fired, 1);
}

TEST(Term, EqualsStructural) {
  Term a = Term::compound("f", {Term::integer(1), Term::atom("x")});
  Term b = Term::compound("f", {Term::integer(1), Term::atom("x")});
  EXPECT_TRUE(a == b);
  Term c = Term::compound("f", {Term::integer(2), Term::atom("x")});
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == Term::atom("f"));
}

TEST(Term, EqualsSeesThroughBindings) {
  Term v = Term::var("X");
  Term a = Term::compound("f", {v});
  v.bind(Term::integer(9));
  EXPECT_TRUE(a == Term::compound("f", {Term::integer(9)}));
}

TEST(Term, UnboundVarsEqualOnlySameCell) {
  Term x = Term::var("X"), y = Term::var("X");
  EXPECT_TRUE(x == x);
  EXPECT_FALSE(x == y);
}

TEST(Term, GroundAndVariables) {
  Term x = Term::var("X"), y = Term::var("Y");
  Term c = Term::compound("f", {x, Term::tuple({y, x})});
  EXPECT_FALSE(c.ground());
  auto vars = c.variables();
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_TRUE(vars[0].same_node(x.deref()));
  EXPECT_TRUE(vars[1].same_node(y.deref()));
  x.bind(Term::integer(1));
  y.bind(Term::integer(2));
  EXPECT_TRUE(c.ground());
  EXPECT_TRUE(c.variables().empty());
}

// A deref() snapshot of an unbound variable holds that variable's node.
// Binding it through another handle must not make the snapshot's readers
// throw: the interpreter formats suspended goals while other workers bind.
TEST(Term, SnapshotKeepsVarNameAfterBind) {
  Term v = Term::var("X");
  Term d = v.deref();
  v.bind(Term::integer(1));
  EXPECT_EQ(d.var_name(), "X");
  EXPECT_TRUE(d.variables().empty());
  EXPECT_EQ(d.to_string(), "1");
  EXPECT_EQ(Term::compound("f", {d}).to_string(), "f(1)");
}

TEST(Term, ToStringShapes) {
  EXPECT_EQ(Term::atom("foo").to_string(), "foo");
  EXPECT_EQ(Term::atom("Foo").to_string(), "'Foo'");
  EXPECT_EQ(Term::atom("hello world").to_string(), "'hello world'");
  EXPECT_EQ(Term::atom("+").to_string(), "+");
  EXPECT_EQ(Term::integer(42).to_string(), "42");
  EXPECT_EQ(Term::real(1.5).to_string(), "1.5");
  EXPECT_EQ(Term::str("hi").to_string(), "\"hi\"");
  EXPECT_EQ(Term::nil().to_string(), "[]");
  EXPECT_EQ(
      Term::list({Term::integer(1), Term::integer(2)}).to_string(), "[1,2]");
  Term v = Term::var("Tail");
  EXPECT_EQ(Term::list({Term::integer(1)}, v).to_string(), "[1|Tail]");
  EXPECT_EQ(Term::tuple({Term::atom("a"), Term::atom("b")}).to_string(),
            "{a,b}");
  EXPECT_EQ(
      Term::compound("f", {Term::atom("a"), Term::var("X")}).to_string(),
      "f(a,X)");
}

TEST(Term, FloatToStringReparsesAsFloat) {
  EXPECT_EQ(Term::real(2.0).to_string(), "2.0");
}

TEST(Term, ConcurrentWhenBoundAndBind) {
  for (int round = 0; round < 20; ++round) {
    Term v = Term::var("X");
    std::atomic<int> fired{0};
    std::thread waiter([&] {
      for (int i = 0; i < 50; ++i) {
        v.when_bound([&] { fired.fetch_add(1); });
      }
    });
    std::thread binder([&] { v.bind(Term::integer(1)); });
    waiter.join();
    binder.join();
    EXPECT_EQ(fired.load(), 50);
  }
}
