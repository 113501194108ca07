#include "interp/interp.hpp"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <variant>

#include "interp/arith.hpp"
#include "interp/builtins.hpp"
#include "term/subst.hpp"
#include "term/writer.hpp"

namespace motif::interp {

using term::Clause;
using term::ProcKey;
using term::Term;

namespace {

/// Outcome of trying one rule against a goal.
enum class RuleOutcome { Commit, Fail, Suspend };

/// Input-only head matching: pattern variables bind (into `b`); a
/// non-variable pattern against an unbound goal variable suspends.
RuleOutcome head_match(const Term& pattern, const Term& value,
                       term::Bindings& b, Term& suspend_var) {
  Term p = pattern.deref();
  Term v = value.deref();
  if (p.is_var()) {
    auto it = b.find(p);
    if (it == b.end()) {
      b.emplace(p, v);
      return RuleOutcome::Commit;
    }
    // Repeated head variable: requires equality of the two goal subterms.
    Term prev = it->second.deref();
    Term now = v;
    if (prev.same_node(now)) return RuleOutcome::Commit;
    if (prev.is_var()) {
      suspend_var = prev;
      return RuleOutcome::Suspend;
    }
    if (now.is_var()) {
      suspend_var = now;
      return RuleOutcome::Suspend;
    }
    return prev.equals(now) ? RuleOutcome::Commit : RuleOutcome::Fail;
  }
  if (v.is_var()) {
    suspend_var = v;
    return RuleOutcome::Suspend;
  }
  if (!p.is_compound() || !v.is_compound()) {
    return p.equals(v) ? RuleOutcome::Commit : RuleOutcome::Fail;
  }
  if (p.functor() != v.functor() || p.arity() != v.arity()) {
    return RuleOutcome::Fail;
  }
  for (std::size_t i = 0; i < p.arity(); ++i) {
    auto r = head_match(p.arg(i), v.arg(i), b, suspend_var);
    if (r != RuleOutcome::Commit) return r;
  }
  return RuleOutcome::Commit;
}

}  // namespace

struct Interp::Impl : std::enable_shared_from_this<Impl> {
  rt::Machine* machine = nullptr;

  /// Max tail-call iterations inside one Machine task before re-posting
  /// (keeps virtual nodes fair without extra task overhead per reduction).
  static constexpr std::uint32_t kTailBudget = 64;

  // ---- the procedure table ------------------------------------------------
  // Every name/arity a goal may call is exactly one procedure: a builtin
  // (run by its op), a foreign procedure, or a program definition. The
  // table is filled before run() and only read while goals reduce, so it
  // takes no lock.
  struct Foreign {
    std::size_t inputs;  // leading arguments that must be ground
    ForeignFn fn;
  };
  struct Rule {
    Clause clause;
    bool otherwise;  // the guard opens with `otherwise`
  };
  struct Definition {
    std::vector<Rule> rules;
    std::atomic<std::uint64_t> commits{0};  // the by_definition profile
  };
  using Proc = std::variant<BuiltinOp, Foreign, Definition>;
  static constexpr const char* kProcKind[] = {
      "a builtin", "a foreign procedure", "a program definition"};

  /// Orders keys as ProcKey does, and looks a goal's functor up in place.
  struct KeyLess {
    using is_transparent = void;
    using View = std::pair<std::string_view, std::size_t>;
    static View view(const ProcKey& k) { return {k.name, k.arity}; }
    static View view(const View& v) { return v; }
    template <class A, class B>
    bool operator()(const A& a, const B& b) const {
      return view(a) < view(b);
    }
  };
  std::map<ProcKey, Proc, KeyLess> procs;
  bool started = false;  // run() was called: the table is frozen

  /// Enters `key` as a new procedure of kind `Kind`; throws if the
  /// name/arity is already taken.
  template <class Kind, class... Args>
  Kind& enter(const char* what, const ProcKey& key, Args&&... args) {
    auto [it, fresh] = procs.try_emplace(key, std::in_place_type<Kind>,
                                         std::forward<Args>(args)...);
    if (!fresh) {
      throw InterpError(std::string(what) + " " + key.to_string() +
                        " collides with " + kProcKind[it->second.index()]);
    }
    return std::get<Kind>(it->second);
  }

  std::atomic<std::uint64_t> reductions{0};
  std::atomic<std::uint64_t> suspensions{0};

  // Suspended processes: the goal and the variable it waits on. A
  // variable's waiter holds only the id and a weak reference to this
  // registry, so a goal that never wakes is owned here alone and is freed
  // with the interpreter, and a variable bound after that wakes nothing.
  // Taking the entry out is what wakes the goal, so each entry wakes at
  // most once.
  struct Suspension {
    Term goal;
    Term var;
  };
  std::mutex susp_m;
  std::uint64_t next_susp_id = 0;
  std::map<std::uint64_t, Suspension> suspended;

  // Ports: multi-producer appenders onto term-level message streams (the
  // `merge` primitive of the Server motif). A port term is '$port'(Id).
  std::mutex ports_m;
  std::vector<Term> port_tails;  // current unbound tail var per port

  std::mutex out_m;
  std::function<void(const std::string&)> output;

  // ---- process scheduling -------------------------------------------------

  void spawn_here(Term goal) {
    machine->post_local([this, goal] { step(goal); });
  }

  void spawn_on(rt::NodeId node, Term goal) {
    machine->post(node, [this, goal] { step(goal); });
  }

  /// Suspends `goal` on `var`: re-posts it (to the current node) when the
  /// variable is bound.
  void suspend(Term goal, Term var) {
    suspensions.fetch_add(1, std::memory_order_relaxed);
    const rt::NodeId node = rt::Machine::current_node() == rt::kNoNode
                                ? 0
                                : rt::Machine::current_node();
    std::uint64_t id;
    {
      std::lock_guard lock(susp_m);
      id = next_susp_id++;
      suspended.emplace(id, Suspension{std::move(goal), var});
    }
    var.when_bound([self = weak_from_this(), node, id] {
      if (auto impl = self.lock()) impl->wake(node, id);
    });
  }

  void wake(rt::NodeId node, std::uint64_t id) {
    Term goal;
    {
      std::lock_guard lock(susp_m);
      auto it = suspended.find(id);
      if (it == suspended.end()) return;  // already woken
      goal = std::move(it->second.goal);
      suspended.erase(it);
    }
    spawn_on(node, std::move(goal));
  }

  // ---- reduction ----------------------------------------------------------

  /// Runs one process, tail-looping up to kTailBudget reductions.
  void step(Term goal) {
    Term current = goal;
    for (std::uint32_t iter = 0; iter < kTailBudget; ++iter) {
      Term next;
      if (!reduce_once(current, next)) return;  // done/suspended/spawned
      current = next;
    }
    // Budget exhausted: yield the node by re-posting the continuation.
    spawn_here(current);
  }

  /// The procedure goal `g` calls, or nullptr.
  Proc* lookup(const Term& g) {
    if (!g.is_atom() && !g.is_compound()) return nullptr;
    auto it = procs.find(KeyLess::View{g.functor(), g.arity()});
    return it == procs.end() ? nullptr : &it->second;
  }

  /// Reduces `goal` by one step. Returns true and sets `tail` when the
  /// reduction produced a tail goal to continue with in this task.
  bool reduce_once(Term goal, Term& tail) {
    Term g = goal.deref();

    if (g.is_var()) {  // metacall on an unbound variable: wait for it
      suspend(g, g);
      return false;
    }

    if (is_placed(g)) {
      dispatch_placed(g);
      return false;
    }

    if (!g.is_atom() && !g.is_compound()) {
      throw InterpError("cannot reduce non-process term: " + g.to_string());
    }
    if (g.is_cons() || g.is_tuple()) {
      throw InterpError("cannot reduce data term: " + term::format_term(g));
    }

    Proc* proc = lookup(g);
    if (proc == nullptr) {
      throw InterpError("undefined process: " + g.functor() + "/" +
                        std::to_string(g.arity()));
    }
    if (const auto* op = std::get_if<BuiltinOp>(proc)) {
      run_builtin(*op, g);
      return false;
    }
    if (const auto* f = std::get_if<Foreign>(proc)) {
      call_foreign(*f, g);
      return false;
    }
    Definition& def = std::get<Definition>(*proc);

    bool saw_suspend = false;
    Term first_suspend_var;
    for (const auto& [rule, otherwise] : def.rules) {
      // `otherwise` guard: commits only if no earlier rule could still
      // apply (any earlier suspension blocks it).
      if (otherwise && saw_suspend) break;
      term::Bindings fresh;
      Term head = term::rename_fresh(rule.head, fresh);
      term::Bindings env;
      Term suspend_var;
      RuleOutcome m = RuleOutcome::Commit;
      for (std::size_t i = 0; i < head.arity() && m == RuleOutcome::Commit;
           ++i) {
        m = head_match(head.arg(i), g.arg(i), env, suspend_var);
      }
      // Guards: the first test that does not hold decides.
      for (auto gt = rule.guard.begin();
           gt != rule.guard.end() && m == RuleOutcome::Commit; ++gt) {
        auto r = eval_guard(
            term::substitute(term::rename_fresh(*gt, fresh), env));
        if (r.truth == Truth::No) m = RuleOutcome::Fail;
        if (r.truth == Truth::Suspend) {
          m = RuleOutcome::Suspend;
          suspend_var = r.suspend_var;
        }
      }
      if (m == RuleOutcome::Suspend && !saw_suspend) {
        saw_suspend = true;
        first_suspend_var = suspend_var;
      }
      if (m != RuleOutcome::Commit) continue;

      // Commit: instantiate body, spawn all but the last goal, tail the
      // last.
      reductions.fetch_add(1, std::memory_order_relaxed);
      def.commits.fetch_add(1, std::memory_order_relaxed);
      if (rule.body.empty()) return false;
      std::vector<Term> body;
      body.reserve(rule.body.size());
      for (const Term& bt : rule.body) {
        body.push_back(term::substitute(term::rename_fresh(bt, fresh), env));
      }
      for (std::size_t i = 0; i + 1 < body.size(); ++i) {
        dispatch(body[i]);
      }
      tail = body.back();  // a placed tail is dispatched by the next step
      return true;
    }

    if (saw_suspend) {
      suspend(g, first_suspend_var);
      return false;
    }
    throw InterpError("process failed (no rule applies): " +
                      term::format_term(g));
  }

  /// Spawns one body goal (current node unless annotated). Builtins run
  /// inline so that their effects (sends in particular) happen in
  /// program order within the clause body — a message-protocol program
  /// may rely on `send(J,init(..)), start_work(..)` meaning the init
  /// message is en route before the work begins.
  void dispatch(const Term& goal) {
    Term d = goal.deref();
    if (is_placed(d)) {
      dispatch_placed(d);
      return;
    }
    const Proc* proc = lookup(d);
    if (const auto* op = proc ? std::get_if<BuiltinOp>(proc) : nullptr) {
      run_builtin(*op, d);
      return;
    }
    spawn_here(d);
  }

  static bool is_placed(const Term& d) {
    return d.is_compound() && d.functor() == "@" && d.arity() == 2;
  }

  /// Goal@Where: `random` or a 1-based integer expression (the placed
  /// goal waits until the expression is bound).
  void dispatch_placed(const Term& placed) {
    const Term goal = placed.arg(0), where = placed.arg(1).deref();
    if (where.is_atom() && where.functor() == "random") {
      spawn_on(machine->random_node(), goal);
      return;
    }
    const auto j = int_arg(where, placed);
    if (!j) return;
    const auto count = static_cast<std::int64_t>(machine->node_count());
    if (*j < 1 || *j > count) {
      throw InterpError("placement " + std::to_string(*j) + " outside 1.." +
                        std::to_string(count));
    }
    spawn_on(static_cast<rt::NodeId>(*j - 1), goal);
  }

  /// Runs foreign procedure `f` on `g`; suspends on unbound dataflow
  /// inputs first.
  void call_foreign(const Foreign& f, const Term& g) {
    const auto& args = g.args();
    for (std::size_t i = 0; i < f.inputs && i < args.size(); ++i) {
      Term d = args[i].deref();
      if (d.is_var()) {
        suspend(g, d);
        return;
      }
      // Inputs must also be fully ground for a low-level routine.
      auto vars = d.variables();
      if (!vars.empty()) {
        suspend(g, vars.front());
        return;
      }
    }
    std::function<bool(const Term&, const Term&)> u =
        [this](const Term& a, const Term& b) { return unify(a, b); };
    ForeignCall call{args, u};
    if (!f.fn(call)) {
      throw InterpError("foreign procedure failed: " + term::format_term(g));
    }
  }

  // ---- unification for builtin outputs ------------------------------------

  /// Full two-way unification (no occurs check), used to deliver builtin
  /// results into caller-supplied patterns (e.g. make_ports(2,Ps,[I1,I2])).
  /// User-level rule heads still use input-only matching.
  bool unify(const Term& a, const Term& b) {
    Term x = a.deref(), y = b.deref();
    if (x.same_node(y)) return true;
    if (x.is_var() || y.is_var()) {
      Term var = x.is_var() ? x : y;
      Term val = x.is_var() ? y : x;
      try {
        var.bind(val);
        return true;
      } catch (const term::BindError&) {
        // Lost a race with a concurrent binder; recheck structurally.
        return unify(var, val);
      }
    }
    if (!x.is_compound() || !y.is_compound()) return x.equals(y);
    if (x.functor() != y.functor() || x.arity() != y.arity()) return false;
    for (std::size_t i = 0; i < x.arity(); ++i) {
      if (!unify(x.arg(i), y.arg(i))) return false;
    }
    return true;
  }

  void unify_output(const Term& pattern, const Term& value, const Term& ctx) {
    if (!unify(pattern, value)) {
      throw InterpError("builtin output mismatch in " +
                        term::format_term(ctx));
    }
  }

  // ---- guards -------------------------------------------------------------

  GuardResult eval_guard(const Term& g) {
    Term d = g.deref();
    if (d.is_var()) return {Truth::Suspend, d};
    // `true` and the comparisons are builtins; their table entry says so.
    const Proc* proc = lookup(d);
    const auto* op = proc ? std::get_if<BuiltinOp>(proc) : nullptr;
    if (op && *op == BuiltinOp::True) return {Truth::Yes, {}};
    if (op && *op == BuiltinOp::Compare) {
      return eval_comparison(d.functor(), d.arg(0), d.arg(1));
    }
    if (d.is_atom() && d.functor() == "otherwise") return {Truth::Yes, {}};
    if ((d.is_compound() && d.arity() == 1)) {
      if (auto r = eval_type_test(d.functor(), d.arg(0))) return *r;
    }
    throw InterpError("unknown guard: " + term::format_term(d));
  }

  // ---- builtins -----------------------------------------------------------

  /// Runs builtin `op` on goal `g`. There is no default case, so an op
  /// without a handler is a -Wswitch warning.
  void run_builtin(BuiltinOp op, const Term& g) {
    switch (op) {
      case BuiltinOp::Assign:
        return builtin_assign(g, /*strict_arith=*/false);
      case BuiltinOp::ArithAssign:
        return builtin_assign(g, /*strict_arith=*/true);
      case BuiltinOp::Compare: {
        // Comparisons in a body act as assertions (used by tests).
        auto r = eval_comparison(g.functor(), g.arg(0), g.arg(1));
        if (r.truth == Truth::Suspend) {
          suspend(g, r.suspend_var);
        } else if (r.truth == Truth::No) {
          throw InterpError("body test failed: " + term::format_term(g));
        }
        return;
      }
      case BuiltinOp::Length:
        return builtin_length(g);
      case BuiltinOp::RandNum:
        return builtin_rand_num(g);
      case BuiltinOp::MakePorts:
        return builtin_make_ports(g);
      case BuiltinOp::Distribute:
        return builtin_distribute(g);
      case BuiltinOp::SendAll:
        return builtin_send_all(g);
      case BuiltinOp::MakeTuple:
        return builtin_make_tuple(g);
      case BuiltinOp::Arg:
        return builtin_arg(g);
      case BuiltinOp::NodesTotal:
        return unify_output(g.arg(0), Term::integer(machine->node_count()),
                            g);
      case BuiltinOp::CurrentNode: {
        const rt::NodeId cur = rt::Machine::current_node();
        return unify_output(
            g.arg(0), Term::integer(cur == rt::kNoNode ? 0 : cur + 1), g);
      }
      case BuiltinOp::Write:
        return write_out(term::format_term(g.arg(0)));
      case BuiltinOp::Writeln:
        return write_out(term::format_term(g.arg(0)) + '\n');
      case BuiltinOp::Work:
        return builtin_work(g);
      case BuiltinOp::True:
        return;
    }
  }

  /// Evaluates the integer expression `x`, an argument of `g`. Returns
  /// nullopt after suspending `g` while `x` has an unbound variable.
  std::optional<std::int64_t> int_arg(const Term& x, const Term& g) {
    auto r = eval_arith(x);
    if (const auto* s = std::get_if<Suspended>(&r)) {
      suspend(g, s->var);
      return std::nullopt;
    }
    const auto* i = std::get_if<std::int64_t>(&std::get<Number>(r));
    if (i == nullptr) {
      throw InterpError("expected an integer in " + term::format_term(g));
    }
    return *i;
  }

  void write_out(const std::string& s) {
    std::function<void(const std::string&)> sink;
    {
      std::lock_guard lock(out_m);
      sink = output;
    }
    if (sink) {
      sink(s);
    } else {
      std::lock_guard lock(out_m);
      std::cout << s << std::flush;
    }
  }

  void builtin_rand_num(const Term& g) {
    const auto hi = int_arg(g.arg(0), g);
    if (!hi) return;
    if (*hi < 1) throw InterpError("rand_num bound must be >= 1");
    const rt::NodeId cur = rt::Machine::current_node();
    auto& rng = machine->rng(cur == rt::kNoNode ? 0 : cur);
    const auto draw = rng.below(static_cast<std::uint64_t>(*hi));
    unify_output(g.arg(1),
                 Term::integer(1 + static_cast<std::int64_t>(draw)), g);
  }

  /// Synthetic low-level computation: burns a deterministic amount of CPU
  /// and records virtual cost units (used by the overhead and load-balance
  /// experiments).
  void builtin_work(const Term& g) {
    const auto units = int_arg(g.arg(0), g);
    if (!units) return;
    volatile std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::int64_t i = 0; i < *units; ++i) {
      h = (h ^ static_cast<std::uint64_t>(i)) * 0x100000001b3ull;
    }
    machine->add_work(static_cast<std::uint64_t>(*units < 0 ? 0 : *units));
  }

  void builtin_assign(const Term& whole, bool strict_arith) {
    Term value = whole.arg(1).deref();
    if (strict_arith || looks_arithmetic(value)) {
      auto res = eval_arith(value);
      if (const auto* s = std::get_if<Suspended>(&res)) {
        suspend(whole, s->var);
        return;
      }
      value = number_to_term(std::get<Number>(res));
    }
    Term l = whole.arg(0).deref();
    if (l.is_var()) {
      l.bind(value);
      return;
    }
    // Assigning to a bound cell succeeds only if it already equals the
    // value (useful for checks); otherwise it is the Strand run-time error.
    if (!l.equals(value)) {
      throw InterpError("assignment to bound variable: " +
                        term::format_term(whole));
    }
  }

  void builtin_length(const Term& g) {
    Term x = g.arg(0).deref();
    if (x.is_var()) {
      suspend(g, x);
      return;
    }
    if (x.is_tuple()) {
      unify_output(g.arg(1),
                   Term::integer(static_cast<std::int64_t>(x.arity())), g);
      return;
    }
    // List length; suspends on an unbound spine.
    std::int64_t count = 0;
    Term cur = x;
    while (cur.is_cons()) {
      ++count;
      cur = cur.arg(1).deref();
    }
    if (cur.is_var()) {
      suspend(g, cur);
      return;
    }
    if (!cur.is_nil()) {
      throw InterpError("length/2 on improper list: " + term::format_term(x));
    }
    unify_output(g.arg(1), Term::integer(count), g);
  }

  // ---- ports --------------------------------------------------------------

  Term new_port() {
    std::lock_guard lock(ports_m);
    const auto id = static_cast<std::int64_t>(port_tails.size());
    port_tails.push_back(Term::var("PortTail"));
    return Term::compound("$port", {Term::integer(id)});
  }

  Term port_head(const Term& port) {
    std::lock_guard lock(ports_m);
    return port_tails[static_cast<std::size_t>(
        port.arg(0).int_value())];
  }

  void port_send(const Term& port, Term msg) {
    Term p = port.deref();
    if (!(p.is_compound() && p.functor() == "$port" && p.arity() == 1)) {
      throw InterpError("not a port: " + term::format_term(p));
    }
    Term cell, fresh = Term::var("PortTail");
    {
      std::lock_guard lock(ports_m);
      auto& slot =
          port_tails[static_cast<std::size_t>(p.arg(0).int_value())];
      cell = slot;
      slot = fresh;
    }
    // Bind outside the registry lock: waking a consumer may send again.
    cell.bind(Term::cons(std::move(msg), fresh));
  }

  void builtin_make_ports(const Term& g) {
    const auto count = int_arg(g.arg(0), g);
    if (!count) return;
    const std::int64_t n = *count;
    if (n < 0) throw InterpError("make_ports count must be >= 0");
    std::vector<Term> ports, heads;
    ports.reserve(static_cast<std::size_t>(n));
    heads.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      Term p = new_port();
      heads.push_back(port_head(p));
      ports.push_back(std::move(p));
    }
    unify_output(g.arg(1), Term::list(std::move(ports)), g);
    unify_output(g.arg(2), Term::list(std::move(heads)), g);
  }

  void builtin_distribute(const Term& g) {
    // distribute(Index, Msg, DT): appends Msg to the Index-th (1-based)
    // port of tuple DT.
    Term dt = g.arg(2).deref();
    if (dt.is_var()) {
      suspend(g, dt);
      return;
    }
    if (!dt.is_tuple()) {
      throw InterpError("distribute/3 needs a tuple of ports, got: " +
                        term::format_term(dt));
    }
    const auto index = int_arg(g.arg(0), g);
    if (!index) return;
    const std::int64_t ix = *index;
    if (ix < 1 || ix > static_cast<std::int64_t>(dt.arity())) {
      throw InterpError("distribute index " + std::to_string(ix) +
                        " outside 1.." + std::to_string(dt.arity()));
    }
    port_send(dt.arg(static_cast<std::size_t>(ix - 1)), g.arg(1).deref());
  }

  void builtin_send_all(const Term& g) {
    Term dt = g.arg(1).deref();
    if (dt.is_var()) {
      suspend(g, dt);
      return;
    }
    if (!dt.is_tuple()) {
      throw InterpError("send_all/2 needs a tuple of ports");
    }
    for (std::size_t i = 0; i < dt.arity(); ++i) {
      port_send(dt.arg(i), g.arg(0).deref());
    }
  }

  void builtin_make_tuple(const Term& g) {
    // make_tuple(ListOrCount, Tuple)
    Term x = g.arg(0).deref();
    if (x.is_var()) {
      suspend(g, x);
      return;
    }
    if (x.is_int()) {
      std::vector<Term> slots;
      for (std::int64_t i = 0; i < x.int_value(); ++i) {
        slots.push_back(Term::var("_"));
      }
      unify_output(g.arg(1), Term::tuple(std::move(slots)), g);
      return;
    }
    auto xs = x.proper_list();
    if (!xs) {
      // An unbound spine suspends; an improper list is an error.
      Term cur = x;
      while (cur.is_cons()) cur = cur.arg(1).deref();
      if (cur.is_var()) {
        suspend(g, cur);
        return;
      }
      throw InterpError("make_tuple/2 on improper list");
    }
    unify_output(g.arg(1), Term::tuple(std::move(*xs)), g);
  }

  void builtin_arg(const Term& g) {
    const auto index = int_arg(g.arg(0), g);
    if (!index) return;
    const std::int64_t ix = *index;
    Term t = g.arg(1).deref();
    if (t.is_var()) {
      suspend(g, t);
      return;
    }
    if (!t.is_compound() || ix < 1 ||
        ix > static_cast<std::int64_t>(t.arity())) {
      throw InterpError("arg/3 out of range: " + term::format_term(g));
    }
    unify_output(g.arg(2), t.arg(static_cast<std::size_t>(ix - 1)), g);
  }
};

Interp::Interp(term::Program program, InterpOptions options)
    : impl_(std::make_shared<Impl>()) {
  for (const auto& sig : builtin_signatures()) {
    impl_->enter<BuiltinOp>("builtin", {std::string(sig.name), sig.arity},
                            sig.op);
  }
  for (const auto& key : program.defined()) {
    auto& def = impl_->enter<Impl::Definition>("program definition", key);
    for (Clause& rule : program.rules_for(key)) {
      const Term first =
          rule.guard.empty() ? Term() : rule.guard.front().deref();
      const bool otherwise =
          first.is_atom() && first.functor() == "otherwise";
      def.rules.push_back({std::move(rule), otherwise});
    }
  }
  machine_ = std::make_unique<rt::Machine>(rt::MachineConfig{
      .nodes = options.nodes,
      .workers = options.workers,
      .seed = options.seed,
      .faults = options.faults,
  });
  impl_->machine = machine_.get();
}

Interp::~Interp() = default;

void Interp::register_foreign(const std::string& name, std::size_t arity,
                              std::size_t inputs, ForeignFn fn) {
  if (impl_->started) {
    throw InterpError("register_foreign after run(): " + name);
  }
  impl_->enter<Impl::Foreign>("foreign procedure", {name, arity}, inputs,
                              std::move(fn));
}

void Interp::set_output(std::function<void(const std::string&)> sink) {
  std::lock_guard lock(impl_->out_m);
  impl_->output = std::move(sink);
}

RunResult Interp::run(const Term& goal) {
  impl_->started = true;
  impl_->spawn_on(0, goal);
  machine_->wait_idle();
  RunResult r;
  r.reductions = impl_->reductions.load(std::memory_order_relaxed);
  r.suspensions = impl_->suspensions.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(impl_->susp_m);
    r.still_suspended = impl_->suspended.size();
    for (const auto& [id, s] : impl_->suspended) {
      if (r.stuck_goals.size() >= 16) break;
      std::string line = term::format_term(s.goal);
      const Term v = s.var.deref();
      if (v.is_var()) line += "  (waiting on " + v.var_name() + ")";
      r.stuck_goals.push_back(std::move(line));
    }
  }
  for (const auto& [key, proc] : impl_->procs) {
    const auto* def = std::get_if<Impl::Definition>(&proc);
    const std::uint64_t n =
        def ? def->commits.load(std::memory_order_relaxed) : 0;
    if (n > 0) r.by_definition.emplace_back(key.to_string(), n);
  }
  std::sort(r.by_definition.begin(), r.by_definition.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  r.load = machine_->load_summary();
  return r;
}

std::pair<Term, RunResult> Interp::run_query(const std::string& goal_src) {
  Term goal = term::parse_term(goal_src);
  RunResult r = run(goal);
  return {goal, r};
}

}  // namespace motif::interp
