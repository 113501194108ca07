#include "interp/builtins.hpp"

namespace motif::interp {

const std::vector<BuiltinSig>& builtin_signatures() {
  using Op = BuiltinOp;
  static const std::vector<BuiltinSig> kTable = {
      {":=", 2, Op::Assign, "od",
       "assign: unify lhs with rhs (arith rhs evaluated)"},
      {"=", 2, Op::Assign, "od", "alias of :="},
      {"is", 2, Op::ArithAssign, "ox", "arithmetic assignment"},
      {"<", 2, Op::Compare, "xx", "numeric less-than (assertion in bodies)"},
      {">", 2, Op::Compare, "xx", "numeric greater-than"},
      {"=<", 2, Op::Compare, "xx", "numeric at-most"},
      {">=", 2, Op::Compare, "xx", "numeric at-least"},
      {"=:=", 2, Op::Compare, "xx", "numeric equality"},
      {"=\\=", 2, Op::Compare, "xx", "numeric inequality"},
      {"==", 2, Op::Compare, "ii", "structural equality"},
      {"\\==", 2, Op::Compare, "ii", "structural inequality"},
      {"length", 2, Op::Length, "io", "list length"},
      {"rand_num", 2, Op::RandNum, "xo",
       "uniform integer in 1..N (per-node RNG)"},
      {"make_ports", 3, Op::MakePorts, "xoo", "N merge ports + merged stream"},
      {"distribute", 3, Op::Distribute, "xdi",
       "send message to server J via the DT tuple"},
      {"send_all", 2, Op::SendAll, "di",
       "broadcast message to every port in the tuple"},
      {"make_tuple", 2, Op::MakeTuple, "io", "list -> tuple"},
      {"arg", 3, Op::Arg, "xio", "J-th element of a tuple"},
      {"nodes_total", 1, Op::NodesTotal, "o", "machine size"},
      {"current_node", 1, Op::CurrentNode, "o", "executing node, 1-based"},
      {"write", 1, Op::Write, "d", "print a term"},
      {"writeln", 1, Op::Writeln, "d", "print a term + newline"},
      {"work", 1, Op::Work, "x",
       "burn N units of synthetic low-level computation"},
      {"true", 0, Op::True, "", "no-op"},
  };
  return kTable;
}

const BuiltinSig* find_builtin(std::string_view name, std::size_t arity) {
  for (const auto& sig : builtin_signatures()) {
    if (sig.name == name && sig.arity == arity) return &sig;
  }
  return nullptr;
}

bool is_comparison(std::string_view name, std::size_t arity) {
  const BuiltinSig* sig = find_builtin(name, arity);
  return sig != nullptr && sig->op == BuiltinOp::Compare;
}

bool is_type_test(std::string_view name, std::size_t arity) {
  if (arity != 1) return false;
  return name == "integer" || name == "float" || name == "number" ||
         name == "string" || name == "atom" || name == "list" ||
         name == "tuple" || name == "compound" || name == "data";
}

bool is_guard_test(std::string_view name, std::size_t arity) {
  if (arity == 0 && (name == "true" || name == "otherwise")) return true;
  return is_comparison(name, arity) || is_type_test(name, arity);
}

}  // namespace motif::interp
