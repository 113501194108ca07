#include "transform/motif.hpp"

#include <set>

namespace motif::transform {

using term::Clause;
using term::Program;
using term::Term;

Transform identity_transform() {
  return [](const Program& a) { return a; };
}

Motif compose(const Motif& m2, const Motif& m1) {
  // T = λA. T2(M1(A)); L = L2.
  Transform t = [m2, m1](const Program& a) { return m2.transformed(m1.apply(a)); };
  return Motif(m2.name() + " o " + m1.name(), std::move(t), m2.library());
}

Motif compose_all(std::vector<Motif> outer_to_inner) {
  if (outer_to_inner.empty()) {
    return Motif("identity", identity_transform(), Program{});
  }
  Motif acc = outer_to_inner.back();
  for (auto it = outer_to_inner.rbegin() + 1; it != outer_to_inner.rend();
       ++it) {
    acc = compose(*it, acc);
  }
  return acc;
}

namespace {
void collect_names(const Term& t, std::set<std::string>& names) {
  for (const Term& v : t.variables()) names.insert(v.var_name());
}
}  // namespace

std::string fresh_var_name(const Clause& c, const std::string& base) {
  FreshNamer namer(c);
  return namer.fresh(base).var_name();
}

std::vector<Term> numbered_vars(std::size_t n) {
  std::vector<Term> vars;
  vars.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    // Appended rather than "V" + ...: GCC 12 reports a false -Wrestrict
    // overlap for a const char* + std::string at -O3.
    std::string name = "V";
    name += std::to_string(i);
    vars.push_back(Term::var(std::move(name)));
  }
  return vars;
}

FreshNamer::FreshNamer(const Clause& c) {
  collect_names(c.head, used_);
  for (const auto& g : c.guard) collect_names(g, used_);
  for (const auto& g : c.body) collect_names(g, used_);
}

Term FreshNamer::fresh(const std::string& base) {
  if (used_.insert(base).second) return Term::var(base);
  for (int i = 1;; ++i) {
    std::string cand = base + std::to_string(i);
    if (used_.insert(cand).second) return Term::var(cand);
  }
}

}  // namespace motif::transform
