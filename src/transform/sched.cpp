#include "transform/sched.hpp"

#include <algorithm>

namespace motif::transform {

using term::Clause;
using term::GoalView;
using term::ProcKey;
using term::Program;
using term::Term;

namespace {

bool is_task_annotated(const Term& goal) {
  GoalView v = term::strip_placement(goal);
  return v.annotated && v.placement.deref().is_atom() &&
         v.placement.deref().functor() == "task";
}

Clause rewrite_clause(const Clause& c) {
  Clause out;
  out.head = c.head;
  out.guard = c.guard;
  for (const Term& goal : c.body) {
    if (!is_task_annotated(goal)) {
      out.body.push_back(goal);
      continue;
    }
    Term p = term::strip_placement(goal).goal;
    out.body.push_back(Term::compound(
        "send", {Term::integer(1), Term::compound("task", {p})}));
  }
  return out;
}

Clause dispatcher_rule_for(const ProcKey& k) {
  // run_task(p(V1,...,Vn)) :- p(V1,...,Vn).
  Term call = Term::compound(k.name, numbered_vars(k.arity));
  Clause c;
  c.head = Term::compound("run_task", {call});
  c.body = {call};
  return c;
}

}  // namespace

std::vector<ProcKey> annotated_task_types(const Program& a) {
  std::vector<ProcKey> keys;
  for (const Clause& c : a.clauses()) {
    for (const Term& goal : c.body) {
      if (!is_task_annotated(goal)) continue;
      ProcKey k = term::goal_key(goal);
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
      }
    }
  }
  return keys;
}

term::Program sched_library() {
  static const char* kSrc = R"(
    server(In) :- current_node(Me), boot_role(Me, In).
    boot_role(1, In) :- manager(In, [], []).
    boot_role(Me, In) :- Me > 1 | send(1, ready(Me)), worker(In).

    manager([task(P)|In], Tasks, Idle) :-
        assign(P, Tasks, Idle, Tasks1, Idle1),
        manager(In, Tasks1, Idle1).
    manager([ready(W)|In], Tasks, Idle) :-
        feed(W, Tasks, Idle, Tasks1, Idle1),
        manager(In, Tasks1, Idle1).
    manager([halt|_], _, _).

    assign(P, Tasks, [], Tasks1, Idle1) :-
        Tasks1 := [P|Tasks], Idle1 := [].
    assign(P, Tasks, [W|Ws], Tasks1, Idle1) :-
        send(W, run(P)), Tasks1 := Tasks, Idle1 := Ws.

    feed(W, [], Idle, Tasks1, Idle1) :-
        Tasks1 := [], Idle1 := [W|Idle].
    feed(W, [P|Ps], Idle, Tasks1, Idle1) :-
        send(W, run(P)), Tasks1 := Ps, Idle1 := Idle.

    worker([run(P)|In]) :-
        run_task(P),
        current_node(Me),
        send(1, ready(Me)),
        worker(In).
    worker([halt|_]).
  )";
  return Program::parse(kSrc);
}

Motif sched_motif(std::vector<ProcKey> entry_task_types) {
  Transform t = [entries =
                     std::move(entry_task_types)](const Program& a) {
    Program out;
    for (const Clause& c : a.clauses()) out.add(rewrite_clause(c));
    std::vector<ProcKey> keys = annotated_task_types(a);
    for (const ProcKey& e : entries) {
      if (std::find(keys.begin(), keys.end(), e) == keys.end()) {
        keys.push_back(e);
      }
    }
    for (const ProcKey& k : keys) out.add(dispatcher_rule_for(k));
    return out;
  };
  return Motif("Sched", std::move(t), sched_library());
}

}  // namespace motif::transform
