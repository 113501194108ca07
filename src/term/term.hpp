// Terms: the data model of the paper's high-level language (Section 2.1).
//
// "Programs are represented as structured terms and transformations as
// programs that manipulate these terms" — this module provides that
// representation for both roles:
//   * syntax trees manipulated by the transformation engine (src/transform)
//   * run-time values manipulated by the concurrent interpreter (src/interp)
//
// A Term is an immutable handle except for variables, which are
// single-assignment cells (rt::Cell: bind once; binding to another
// variable creates an alias chain, which deref() follows without locks).
// The supported shapes follow Strand:
//   variables      X, Xs1, _
//   atoms          foo, [], 'quoted atom', +, :=
//   integers       42          floats  3.14       strings  "text"
//   lists          [H|T] encoded as '.'(H,T), [] as the nil atom
//   tuples         {a,b,c} encoded as functor "{}"
//   compounds      f(A,B)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace motif::term {

enum class Tag : std::uint8_t { Var, Atom, Int, Float, Str, Compound };

class Term;

/// Thrown on a second assignment to a bound variable (Strand run-time error).
class BindError : public std::logic_error {
 public:
  explicit BindError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
struct Node;
using NodePtr = std::shared_ptr<Node>;
}  // namespace detail

class Term {
 public:
  /// Default-constructed Term is the atom [] (nil); keeps containers easy.
  Term();

  // --- constructors -------------------------------------------------------
  static Term var(std::string name = "_");
  static Term atom(std::string name);
  static Term integer(std::int64_t v);
  static Term real(double v);
  static Term str(std::string v);
  static Term compound(std::string functor, std::vector<Term> args);
  static Term tuple(std::vector<Term> args);
  static Term nil();
  static Term cons(Term head, Term tail);
  /// Proper list of `items`, or partial list ending in `tail`.
  static Term list(std::vector<Term> items, Term tail = nil());

  // --- inspection (all operate on the dereferenced term) ------------------
  /// Follows variable bindings to the representative term.
  Term deref() const;

  Tag tag() const;
  bool is_var() const { return tag() == Tag::Var; }
  bool is_atom() const { return tag() == Tag::Atom; }
  bool is_int() const { return tag() == Tag::Int; }
  bool is_float() const { return tag() == Tag::Float; }
  bool is_number() const { return is_int() || is_float(); }
  bool is_str() const { return tag() == Tag::Str; }
  bool is_compound() const { return tag() == Tag::Compound; }
  bool is_nil() const;
  bool is_cons() const;
  bool is_tuple() const;
  /// True for nil or cons (not necessarily a *proper* list).
  bool is_list_cell() const { return is_nil() || is_cons(); }

  /// Atom or compound functor name. Throws for other tags.
  const std::string& functor() const;
  /// Number of arguments (0 for atoms). Throws unless atom/compound.
  std::size_t arity() const;
  const std::vector<Term>& args() const;
  Term arg(std::size_t i) const;

  std::int64_t int_value() const;
  double float_value() const;
  double as_double() const;  // int or float
  const std::string& str_value() const;

  /// Variable name as written in the source ("_" for anonymous). Reads
  /// the node this handle holds, without dereferencing: a deref() snapshot
  /// keeps its name after a later bind. Throws unless that node is a
  /// variable.
  const std::string& var_name() const;

  Term head() const { return arg(0); }  // of a cons cell
  Term tail() const { return arg(1); }

  /// Collects a proper list into a vector; returns nullopt if the spine
  /// ends in something other than nil (unbound tail or improper list).
  std::optional<std::vector<Term>> proper_list() const;

  // --- variables (single-assignment, thread-safe) --------------------------
  /// Binds this (dereferenced) variable to `value`. Throws BindError if the
  /// dereferenced term is not an unbound variable, or on self-alias.
  /// Registered waiters run on the caller's thread after the bind.
  void bind(Term value) const;

  /// True if deref() is no longer a variable.
  bool bound() const { return !is_var(); }

  /// Runs `f` when this variable is bound (inline if already bound, or if
  /// this term is not a variable at all). Used by the interpreter to
  /// suspend processes on dataflow.
  void when_bound(std::function<void()> f) const;

  // --- structure -----------------------------------------------------------
  /// Structural equality on dereferenced terms; unbound variables are equal
  /// only to themselves (same cell).
  bool equals(const Term& other) const;

  /// Identity of the underlying node (post-deref for vars only if desired
  /// by caller; this compares raw handles).
  bool same_node(const Term& other) const { return n_ == other.n_; }

  /// True if the dereferenced term contains no unbound variables.
  bool ground() const;

  /// All distinct unbound variables in the term, in first-occurrence order.
  std::vector<Term> variables() const;

  /// Canonical source syntax; see also writer.hpp for program printing.
  std::string to_string() const;

 private:
  explicit Term(detail::NodePtr n) : n_(std::move(n)) {}
  /// deref() without the copy: the handle at the end of the binding
  /// chain, kept alive by this one.
  const Term* deref_ptr() const;
  detail::NodePtr n_;
  friend struct detail::Node;
  friend struct TermHash;
};

/// Hash of the *node identity* (not structure) — for var->replacement maps.
struct TermHash {
  std::size_t operator()(const Term& t) const {
    return std::hash<const void*>()(static_cast<const void*>(t.n_.get()));
  }
};
struct TermIdEq {
  bool operator()(const Term& a, const Term& b) const { return a.same_node(b); }
};

inline bool operator==(const Term& a, const Term& b) { return a.equals(b); }
inline bool operator!=(const Term& a, const Term& b) { return !a.equals(b); }

}  // namespace motif::term
