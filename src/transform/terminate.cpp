#include "transform/terminate.hpp"

#include <set>

#include "transform/rand.hpp"
#include "transform/server.hpp"
#include "transform/tree.hpp"

namespace motif::transform {

using term::Clause;
using term::GoalView;
using term::ProcKey;
using term::Program;
using term::Term;

namespace {

bool is_assign(const Term& g) {
  return g.is_compound() && g.arity() == 2 &&
         (g.functor() == ":=" || g.functor() == "=");
}

bool is_arith_assign(const Term& g) {
  return g.is_compound() && g.arity() == 2 && g.functor() == "is";
}

Term with_circuit(const Term& call, const Term& l, const Term& r) {
  std::vector<Term> args;
  if (call.is_compound()) args = call.args();
  args.push_back(l);
  args.push_back(r);
  return Term::compound(call.functor(), std::move(args));
}

}  // namespace

term::Program terminate_library() {
  // The circuit carries the `closed` token left to right: a segment
  // forwards the token (R := L) only when it has completed (and, for the
  // wrapped assignments, only when the assigned value exists). When the
  // token reaches the entry wrapper's R, everything has terminated.
  static const char* kSrc = R"(
    tw_assign(X, E, L, R) :- X := E, tw_done(X, L, R).
    tw_is(X, E, L, R) :- X is E, tw_done(X, L, R).
    tw_done(X, L, R) :- data(X), data(L) | R := L.
    tw_short(L, R) :- data(L) | R := L.
    tw_watch(R) :- data(R) | halt.
  )";
  return Program::parse(kSrc);
}

Motif terminate_motif(ProcKey entry) {
  Transform t = [entry](const Program& a) {
    // The set of definitions to thread: everything defined in A.
    std::set<ProcKey> defined;
    for (const auto& k : a.defined()) defined.insert(k);

    Program out;
    for (const Clause& c : a.clauses()) {
      Clause nc;
      FreshNamer namer(c);
      Term cl = namer.fresh("Cl");
      Term cr = namer.fresh("Cr");
      nc.head = with_circuit(c.head, cl, cr);
      nc.guard = c.guard;

      // First pass: which goals are threaded?
      std::vector<bool> threaded(c.body.size(), false);
      std::size_t n_threaded = 0;
      for (std::size_t i = 0; i < c.body.size(); ++i) {
        Term g = term::strip_placement(c.body[i]).goal.deref();
        if (g.is_var()) continue;  // metacall: treated as instantaneous
        if (is_assign(g) || is_arith_assign(g) ||
            defined.count(term::goal_key(g)) > 0) {
          threaded[i] = true;
          ++n_threaded;
        }
      }

      if (n_threaded == 0) {
        nc.body = c.body;
        nc.body.push_back(Term::compound("tw_short", {cl, cr}));
        out.add(std::move(nc));
        continue;
      }

      Term left = cl;
      std::size_t seen = 0;
      for (std::size_t i = 0; i < c.body.size(); ++i) {
        if (!threaded[i]) {
          nc.body.push_back(c.body[i]);
          continue;
        }
        ++seen;
        Term right = (seen == n_threaded) ? cr : namer.fresh("Cm");
        GoalView v = term::strip_placement(c.body[i]);
        Term g = v.goal.deref();
        Term rewritten;
        if (is_assign(g)) {
          rewritten =
              Term::compound("tw_assign", {g.arg(0), g.arg(1), left, right});
        } else if (is_arith_assign(g)) {
          rewritten =
              Term::compound("tw_is", {g.arg(0), g.arg(1), left, right});
        } else {
          rewritten = with_circuit(g, left, right);
        }
        if (v.annotated) {
          rewritten = Term::compound("@", {rewritten, v.placement});
        }
        nc.body.push_back(std::move(rewritten));
        left = right;
      }
      out.add(std::move(nc));
    }

    // Terminating entry wrapper:
    //   <entry>_tw(V1..Vn) :- <entry>(V1..Vn, closed, R), tw_watch(R).
    const std::vector<Term> vars = numbered_vars(entry.arity);
    Term r = Term::var("R");
    std::vector<Term> inner_args = vars;
    inner_args.push_back(Term::atom("closed"));
    inner_args.push_back(r);
    Clause wrapper;
    wrapper.head = Term::compound(entry.name + "_tw", vars);
    wrapper.body = {Term::compound(entry.name, std::move(inner_args)),
                    Term::compound("tw_watch", {r})};
    out.add(std::move(wrapper));
    return out;
  };
  return Motif("Terminate", std::move(t), terminate_library());
}

Motif tree_reduce1_terminating_motif() {
  return compose_all({server_motif(),
                      rand_motif({ProcKey{"reduce_tw", 2}}),
                      terminate_motif(ProcKey{"reduce", 2}),
                      tree1_motif()});
}

}  // namespace motif::transform
