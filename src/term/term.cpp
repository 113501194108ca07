#include "term/term.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "runtime/cell.hpp"

namespace motif::term {

namespace detail {

struct Node {
  Tag tag;

  // Atom/Compound: functor; Var: source name; Str: contents.
  std::string text;
  std::vector<Term> args;
  std::int64_t i = 0;
  double f = 0.0;

  // Var-only: the binding. Bound values are immutable, so a handle that
  // reaches a node through bindings keeps the whole chain alive.
  rt::Cell<Term> binding;
};

}  // namespace detail

using detail::Node;
using detail::NodePtr;

namespace {
const std::string kNilName = "[]";
const std::string kConsName = ".";
const std::string kTupleName = "{}";

NodePtr make(Tag t) {
  auto n = std::make_shared<Node>();
  n->tag = t;
  return n;
}
}  // namespace

Term::Term() : n_(nullptr) { *this = nil(); }

Term Term::var(std::string name) {
  auto n = make(Tag::Var);
  n->text = std::move(name);
  return Term(std::move(n));
}

Term Term::atom(std::string name) {
  auto n = make(Tag::Atom);
  n->text = std::move(name);
  return Term(std::move(n));
}

Term Term::integer(std::int64_t v) {
  auto n = make(Tag::Int);
  n->i = v;
  return Term(std::move(n));
}

Term Term::real(double v) {
  auto n = make(Tag::Float);
  n->f = v;
  return Term(std::move(n));
}

Term Term::str(std::string v) {
  auto n = make(Tag::Str);
  n->text = std::move(v);
  return Term(std::move(n));
}

Term Term::compound(std::string functor, std::vector<Term> args) {
  if (args.empty()) return atom(std::move(functor));
  auto n = make(Tag::Compound);
  n->text = std::move(functor);
  n->args = std::move(args);
  return Term(std::move(n));
}

Term Term::tuple(std::vector<Term> args) {
  auto n = make(Tag::Compound);
  n->text = kTupleName;
  n->args = std::move(args);
  return Term(std::move(n));
}

Term Term::nil() { return atom(kNilName); }

Term Term::cons(Term head, Term tail) {
  return compound(kConsName, {std::move(head), std::move(tail)});
}

Term Term::list(std::vector<Term> items, Term tail) {
  Term out = std::move(tail);
  for (auto it = items.rbegin(); it != items.rend(); ++it) {
    out = cons(*it, out);
  }
  return out;
}

const Term* Term::deref_ptr() const {
  const Term* cur = this;
  while (cur->n_->tag == Tag::Var) {
    const Term* next = cur->n_->binding.peek();
    if (next == nullptr) break;
    cur = next;
  }
  return cur;
}

Term Term::deref() const { return *deref_ptr(); }

Tag Term::tag() const { return deref_ptr()->n_->tag; }

bool Term::is_nil() const {
  const Node& d = *deref_ptr()->n_;
  return d.tag == Tag::Atom && d.text == kNilName;
}

bool Term::is_cons() const {
  const Node& d = *deref_ptr()->n_;
  return d.tag == Tag::Compound && d.text == kConsName && d.args.size() == 2;
}

bool Term::is_tuple() const {
  const Node& d = *deref_ptr()->n_;
  return d.tag == Tag::Compound && d.text == kTupleName;
}

const std::string& Term::functor() const {
  const Node& d = *deref_ptr()->n_;
  if (d.tag != Tag::Atom && d.tag != Tag::Compound) {
    throw std::logic_error("functor() on non-atom/compound: " + to_string());
  }
  return d.text;
}

std::size_t Term::arity() const {
  const Node& d = *deref_ptr()->n_;
  if (d.tag == Tag::Atom) return 0;
  if (d.tag == Tag::Compound) return d.args.size();
  throw std::logic_error("arity() on non-atom/compound: " + to_string());
}

const std::vector<Term>& Term::args() const {
  static const std::vector<Term> kEmpty;
  const Node& d = *deref_ptr()->n_;
  if (d.tag == Tag::Atom) return kEmpty;
  if (d.tag != Tag::Compound) {
    throw std::logic_error("args() on non-compound: " + to_string());
  }
  return d.args;
}

Term Term::arg(std::size_t i) const {
  const auto& a = args();
  if (i >= a.size()) throw std::out_of_range("term arg index");
  return a[i];
}

std::int64_t Term::int_value() const {
  const Node& d = *deref_ptr()->n_;
  if (d.tag != Tag::Int) throw std::logic_error("not an integer: " + to_string());
  return d.i;
}

double Term::float_value() const {
  const Node& d = *deref_ptr()->n_;
  if (d.tag != Tag::Float) throw std::logic_error("not a float: " + to_string());
  return d.f;
}

double Term::as_double() const {
  const Node& d = *deref_ptr()->n_;
  if (d.tag == Tag::Int) return static_cast<double>(d.i);
  if (d.tag == Tag::Float) return d.f;
  throw std::logic_error("not a number: " + to_string());
}

const std::string& Term::str_value() const {
  const Node& d = *deref_ptr()->n_;
  if (d.tag != Tag::Str) throw std::logic_error("not a string: " + to_string());
  return d.text;
}

const std::string& Term::var_name() const {
  // The node this handle holds, never re-dereferenced: a snapshot taken
  // by deref() keeps its name after another thread binds it.
  if (n_->tag != Tag::Var) throw std::logic_error("not a variable: " + to_string());
  return n_->text;
}

std::optional<std::vector<Term>> Term::proper_list() const {
  std::vector<Term> out;
  Term cur = deref();
  while (cur.is_cons()) {
    out.push_back(cur.arg(0));
    cur = cur.arg(1).deref();
  }
  if (!cur.is_nil()) return std::nullopt;
  return out;
}

void Term::bind(Term value) const {
  Term self = deref();
  if (self.n_->tag != Tag::Var) {
    throw BindError("bind target already has a value: " + self.to_string());
  }
  Term v = value.deref();
  if (v.n_ == self.n_) {
    // X := X is a no-op alias; Strand treats it as already satisfied.
    return;
  }
  if (!self.n_->binding.try_bind(std::move(v))) {
    throw BindError("variable " + self.n_->text + " bound twice");
  }
}

void Term::when_bound(std::function<void()> f) const {
  Term self = deref();
  if (self.n_->tag != Tag::Var) {
    f();
    return;
  }
  self.n_->binding.when_bound([f = std::move(f)](const Term&) { f(); });
}

bool Term::equals(const Term& other) const {
  const Term &a = *deref_ptr(), &b = *other.deref_ptr();
  if (a.n_ == b.n_) return true;
  if (a.n_->tag != b.n_->tag) return false;
  switch (a.n_->tag) {
    case Tag::Var:
      return false;  // distinct unbound vars
    case Tag::Atom:
      return a.n_->text == b.n_->text;
    case Tag::Int:
      return a.n_->i == b.n_->i;
    case Tag::Float:
      return a.n_->f == b.n_->f;
    case Tag::Str:
      return a.n_->text == b.n_->text;
    case Tag::Compound: {
      if (a.n_->text != b.n_->text || a.n_->args.size() != b.n_->args.size())
        return false;
      for (std::size_t i = 0; i < a.n_->args.size(); ++i) {
        if (!a.n_->args[i].equals(b.n_->args[i])) return false;
      }
      return true;
    }
  }
  return false;
}

bool Term::ground() const {
  const Term& d = *deref_ptr();
  switch (d.n_->tag) {
    case Tag::Var:
      return false;
    case Tag::Compound:
      return std::all_of(d.n_->args.begin(), d.n_->args.end(),
                         [](const Term& t) { return t.ground(); });
    default:
      return true;
  }
}

namespace {
using NodeSet = std::unordered_set<Term, TermHash, TermIdEq>;

void collect_vars(const Term& t, std::vector<Term>& out, NodeSet& seen) {
  Term d = t.deref();
  if (d.is_var()) {
    if (seen.insert(d).second) out.push_back(d);
    return;
  }
  if (d.is_compound()) {
    for (const auto& a : d.args()) collect_vars(a, out, seen);
  }
}
}  // namespace

std::vector<Term> Term::variables() const {
  std::vector<Term> out;
  NodeSet seen;
  collect_vars(*this, out, seen);
  return out;
}

namespace {

bool atom_needs_quotes(const std::string& s) {
  if (s.empty()) return true;
  if (s == kNilName || s == kTupleName) return false;
  static const std::string kSymbolic = "+-*/\\^<>=~:.?@#&$";
  const bool sym0 = kSymbolic.find(s[0]) != std::string::npos;
  if (sym0) {
    return !std::all_of(s.begin(), s.end(), [&](char c) {
      return kSymbolic.find(c) != std::string::npos;
    });
  }
  if (!(s[0] >= 'a' && s[0] <= 'z')) return true;
  return !std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
  });
}

void print(const Term& t, std::ostream& os) {
  Term d = t.deref();
  switch (d.tag()) {
    case Tag::Var:
      os << d.var_name();
      return;
    case Tag::Int:
      os << d.int_value();
      return;
    case Tag::Float: {
      std::ostringstream tmp;
      tmp << d.float_value();
      std::string s = tmp.str();
      // Keep floats re-readable as floats.
      if (s.find_first_of(".eE") == std::string::npos) s += ".0";
      os << s;
      return;
    }
    case Tag::Str:
      os << '"';
      for (char c : d.str_value()) {
        if (c == '"' || c == '\\') os << '\\';
        os << c;
      }
      os << '"';
      return;
    case Tag::Atom: {
      const std::string& name = d.functor();
      if (atom_needs_quotes(name)) {
        os << '\'';
        for (char c : name) {
          if (c == '\'' || c == '\\') os << '\\';
          os << c;
        }
        os << '\'';
      } else {
        os << name;
      }
      return;
    }
    case Tag::Compound: {
      if (d.is_cons()) {
        os << '[';
        print(d.arg(0), os);
        Term cur = d.arg(1).deref();
        while (cur.is_cons()) {
          os << ',';
          print(cur.arg(0), os);
          cur = cur.arg(1).deref();
        }
        if (!cur.is_nil()) {
          os << '|';
          print(cur, os);
        }
        os << ']';
        return;
      }
      if (d.is_tuple()) {
        os << '{';
        for (std::size_t i = 0; i < d.arity(); ++i) {
          if (i) os << ',';
          print(d.arg(i), os);
        }
        os << '}';
        return;
      }
      Term functor_as_atom = Term::atom(d.functor());
      print(functor_as_atom, os);
      os << '(';
      for (std::size_t i = 0; i < d.arity(); ++i) {
        if (i) os << ',';
        print(d.arg(i), os);
      }
      os << ')';
      return;
    }
  }
}

}  // namespace

std::string Term::to_string() const {
  std::ostringstream os;
  print(*this, os);
  return os.str();
}

}  // namespace motif::term
