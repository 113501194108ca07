// The motif algebra of Section 2.2.
//
// "The implementation of a motif comprises both a source-to-source
// transformation and a library program. Hence, we often denote a motif by
// a pair {T, L} ... the application of M to A yields a new program
// A' = M(A) = T(A) ∪ L."
//
// Composition: M = M2 ∘ M1, with M(A) = M2(M1(A)) = T2(T1(A) ∪ L1) ∪ L2.
// Note that the composed motif is itself a {T, L} pair with
// T = λA. T2(T1(A) ∪ L1) and L = L2 — composition is closed, which is what
// lets users build Tree-Reduce-1 = Server ∘ Rand ∘ Tree1 (Section 3.4).
#pragma once

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "term/program.hpp"

namespace motif::transform {

using Transform = std::function<term::Program(const term::Program&)>;

class Motif {
 public:
  Motif(std::string name, Transform t, term::Program library)
      : name_(std::move(name)),
        transform_(std::move(t)),
        library_(std::move(library)) {}

  const std::string& name() const { return name_; }
  const term::Program& library() const { return library_; }

  /// T(A): the transformed application, before linking.
  term::Program transformed(const term::Program& a) const {
    return transform_(a);
  }

  /// M(A) = T(A) ∪ L.
  term::Program apply(const term::Program& a) const {
    return transformed(a).linked_with(library_);
  }

 private:
  std::string name_;
  Transform transform_;
  term::Program library_;
};

/// The identity transformation (used by library-only motifs like Tree1).
Transform identity_transform();

/// M2 ∘ M1.
Motif compose(const Motif& m2, const Motif& m1);

/// M_n ∘ ... ∘ M_1 (rightmost applied first, matching the paper's
/// Server ∘ Rand ∘ Tree1 notation).
Motif compose_all(std::vector<Motif> outer_to_inner);

/// A variable name not used anywhere in `c`, preferring `base`, then
/// base1, base2, ... Keeps transformation output readable AND
/// re-parseable (two distinct cells printed with the same name would
/// merge on re-parse).
std::string fresh_var_name(const term::Clause& c, const std::string& base);

/// Variables V1..Vn: the arguments of a rule generated for a procedure
/// of arity n.
std::vector<term::Term> numbered_vars(std::size_t n);

/// Stateful fresh-name supply for a clause being rewritten: every name it
/// hands out is recorded so repeated requests for the same base stay
/// distinct (two @random goals in one body need N/O and N1/O1).
class FreshNamer {
 public:
  explicit FreshNamer(const term::Clause& c);
  term::Term fresh(const std::string& base);

 private:
  std::set<std::string> used_;
};

}  // namespace motif::transform
