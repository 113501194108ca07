#include "transform/rand.hpp"

#include <algorithm>

namespace motif::transform {

using term::Clause;
using term::GoalView;
using term::ProcKey;
using term::Program;
using term::Term;

namespace {

bool is_random_annotated(const Term& goal) {
  GoalView v = term::strip_placement(goal);
  return v.annotated && v.placement.deref().is_atom() &&
         v.placement.deref().functor() == "random";
}

Clause rewrite_clause(const Clause& c) {
  Clause out;
  out.head = c.head;
  out.guard = c.guard;
  FreshNamer namer(c);
  for (const Term& goal : c.body) {
    if (!is_random_annotated(goal)) {
      out.body.push_back(goal);
      continue;
    }
    Term p = term::strip_placement(goal).goal;
    Term n = namer.fresh("N");
    Term o = namer.fresh("O");
    out.body.push_back(Term::compound("nodes", {n}));
    out.body.push_back(Term::compound("rand_num", {n, o}));
    out.body.push_back(Term::compound("send", {o, p}));
  }
  return out;
}

Clause server_rule_for(const ProcKey& k) {
  // server([p(V1,...,Vn)|In]) :- p(V1,...,Vn), server(In).
  Term call = Term::compound(k.name, numbered_vars(k.arity));
  Term in = Term::var("In");
  Clause c;
  c.head = Term::compound("server", {Term::cons(call, in)});
  c.body = {call, Term::compound("server", {in})};
  return c;
}

Clause server_halt_rule() {
  // server([halt|_]).
  Clause c;
  c.head = Term::compound(
      "server", {Term::cons(Term::atom("halt"), Term::var("_"))});
  return c;
}

}  // namespace

std::vector<ProcKey> annotated_random_types(const Program& a) {
  std::vector<ProcKey> keys;
  for (const Clause& c : a.clauses()) {
    for (const Term& goal : c.body) {
      if (!is_random_annotated(goal)) continue;
      ProcKey k = term::goal_key(goal);
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
      }
    }
  }
  return keys;
}

Motif rand_motif(std::vector<ProcKey> entry_message_types) {
  Transform t = [entries = std::move(entry_message_types)](const Program& a) {
    Program out;
    for (const Clause& c : a.clauses()) out.add(rewrite_clause(c));
    std::vector<ProcKey> keys = annotated_random_types(a);
    for (const ProcKey& e : entries) {
      if (std::find(keys.begin(), keys.end(), e) == keys.end()) {
        keys.push_back(e);
      }
    }
    for (const ProcKey& k : keys) out.add(server_rule_for(k));
    if (!keys.empty()) out.add(server_halt_rule());
    return out;
  };
  return Motif("Rand", std::move(t), Program{});
}

term::Program terminating_driver(const std::string& name,
                                 const std::string& entry) {
  return Program::parse(name + "(T,V) :- " + entry + "(T,V), " + name +
                        "_wait(V).\n" + name +
                        "_wait(V) :- data(V) | halt.\n");
}

}  // namespace motif::transform
