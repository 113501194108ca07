// The shared builtin/guard signature tables: the single source of truth
// for which names the interpreter executes natively, with the argument
// modes the static analyzer (src/analysis) needs to reason about
// producers and consumers. The interpreter enters every row into its
// procedure table and runs it by the row's `op` (an exhaustive switch, so
// a row without a handler is a -Wswitch warning); motiflint reads the
// mode strings to classify every variable occurrence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace motif::interp {

/// What the interpreter runs for a builtin. Rows that share a handler
/// share an op: `:=` and `=`, and the eight comparisons.
enum class BuiltinOp : std::uint8_t {
  Assign, ArithAssign, Compare, Length, RandNum, MakePorts, Distribute,
  SendAll, MakeTuple, Arg, NodesTotal, CurrentNode, Write, Writeln, Work,
  True,
};

/// One builtin process signature. `modes` has one character per argument:
///
///   'i'  input: the builtin suspends until this argument is bound (or
///        walks its spine, binding nothing) — a top-level variable here
///        is a consumer that must have a producer elsewhere;
///   'x'  arithmetic expression: every variable inside must become bound;
///   'o'  output: delivered by unification — variables inside are written;
///   'd'  data: read as a value, never awaited and never bound (message
///        payloads, printed terms) — variables inside escape into data.
struct BuiltinSig {
  std::string_view name;
  std::size_t arity;
  BuiltinOp op;
  std::string_view modes;  // one char per argument
  std::string_view summary;
};

/// All builtin signatures, in documentation order.
const std::vector<BuiltinSig>& builtin_signatures();

/// Lookup by name/arity; nullptr if not a builtin.
const BuiltinSig* find_builtin(std::string_view name, std::size_t arity);

/// Comparison tests usable in guards and (as assertions) in bodies:
/// < > =< >= =:= =\= on numbers, == \== structurally.
bool is_comparison(std::string_view name, std::size_t arity);

/// Type tests usable in guards: integer/float/number/string/atom/list/
/// tuple/compound/data, all arity 1.
bool is_type_test(std::string_view name, std::size_t arity);

/// Any goal the guard evaluator accepts: true, otherwise, comparisons,
/// type tests.
bool is_guard_test(std::string_view name, std::size_t arity);

}  // namespace motif::interp
