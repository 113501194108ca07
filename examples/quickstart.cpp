// Quickstart: reduce the paper's arithmetic expression tree — the example
// of Section 3.1, (3*2)*(3+1) = 24 — with each tree-reduction motif.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>

#include "motifs/motifs.hpp"

using IntTree = motif::Tree<long, char>;

namespace {
long eval(const char& op, const long& a, const long& b) {
  return op == '+' ? a + b : a * b;
}
}  // namespace

int main() {
  // The expression tree of Section 3.1.
  auto tree = IntTree::node(
      '*', IntTree::node('*', IntTree::leaf(3), IntTree::leaf(2)),
      IntTree::node('+', IntTree::leaf(3), IntTree::leaf(1)));

  // A simulated 4-processor machine.
  motif::rt::Machine machine({.nodes = 4, .workers = 2});

  const long seq = motif::reduce_sequential<long, char>(tree, eval);
  std::printf("sequential oracle        : %ld\n", seq);

  const long tr1 = motif::tree_reduce1<long, char>(machine, tree, eval);
  std::printf("Tree-Reduce-1 (random)   : %ld\n", tr1);

  const long tr2 = motif::tree_reduce2<long, char>(machine, tree, eval);
  std::printf("Tree-Reduce-2 (labelled) : %ld\n", tr2);

  const long st = motif::static_tree_reduce<long, char>(machine, tree, eval);
  std::printf("static partition         : %ld\n", st);

  // A bigger reduction: sum of 1..100000 over a balanced tree, on a fresh
  // machine (counters only grow), with the load summary showing work
  // shipped across the virtual processors.
  auto big = motif::balanced_tree<long, char>(
      100000, [](std::size_t i) { return static_cast<long>(i + 1); }, '+');
  motif::rt::Machine big_machine({.nodes = 4, .workers = 2});
  const long sum = motif::tree_reduce1<long, char>(big_machine, big, eval);
  auto load = big_machine.load_summary();
  std::printf("sum 1..100000            : %ld (expected %ld)\n", sum,
              100000L * 100001 / 2);
  std::printf("tasks=%llu remote_msgs=%llu imbalance=%.2f\n",
              static_cast<unsigned long long>(load.total_tasks),
              static_cast<unsigned long long>(load.remote_msgs),
              load.imbalance);
  return (seq == 24 && tr1 == 24 && tr2 == 24 && st == 24) ? 0 : 1;
}
