// Focused tests for corners not exercised elsewhere: directed graphs,
// solver non-convergence reporting, uneven scheduler groups, server RNG
// determinism, and lexer edge cases.
#include <gtest/gtest.h>

#include "motifs/motifs.hpp"
#include "term/parser.hpp"
#include "term/writer.hpp"

namespace m = motif;
namespace rt = motif::rt;
namespace t = motif::term;

TEST(GraphDirected, EdgesOnlyOneWay) {
  auto g = m::Graph::from_edges(3, {{0, 1}, {1, 2}}, /*undirected=*/false);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 0u);
  auto d = m::bfs_sequential(g, 2);
  EXPECT_EQ(d[2], 0);
  EXPECT_EQ(d[0], m::kUnreached);  // no back edges
  rt::Machine mach({.nodes = 2, .workers = 2});
  EXPECT_EQ(m::parallel_bfs(mach, g, 2), d);
}

TEST(GridNonConvergence, ReportedHonestly) {
  rt::Machine mach({.nodes = 2, .workers = 2});
  m::Grid2D g(32, 32, 0.0);
  for (std::size_t c = 0; c < 32; ++c) g.at(0, c) = 100.0;
  m::JacobiOptions opts;
  opts.max_iters = 3;  // far too few
  opts.tolerance = 1e-12;
  auto res = m::jacobi_solve(mach, g, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3u);
  EXPECT_GT(res.residual, 1e-12);
}

TEST(SchedulerUnevenGroups, SixWorkersGroupFour) {
  rt::Machine mach({.nodes = 7, .workers = 2});
  m::Scheduler s(mach, {.workers = 6, .levels = 2, .group = 4, .batch = 3});
  std::atomic<int> ran{0};
  for (int i = 0; i < 120; ++i) {
    s.submit([&] { ran.fetch_add(1); });
  }
  s.run();
  EXPECT_EQ(ran.load(), 120);
}

TEST(SchedulerSingleWorkerHierarchy, DegenerateGroup) {
  rt::Machine mach({.nodes = 2, .workers = 2});
  m::Scheduler s(mach, {.workers = 1, .levels = 2, .group = 4, .batch = 2});
  std::atomic<int> ran{0};
  for (int i = 0; i < 17; ++i) s.submit([&] { ran.fetch_add(1); });
  s.run();
  EXPECT_EQ(ran.load(), 17);
}

TEST(ServerRng, DeterministicPerSeed) {
  auto draw = [](std::uint64_t seed) {
    rt::Machine mach(
        {.nodes = 2, .workers = 1, .batch = 64, .seed = seed});
    std::vector<std::uint64_t> vals;
    m::ServerNetwork<int> net(mach, 2, [&](auto& ctx, int k) {
      vals.push_back(ctx.rng().below(1000));
      if (k == 0) {
        ctx.halt();
      } else {
        ctx.send(1, k - 1);
      }
    });
    net.start(1, 5);
    net.wait();
    return vals;
  };
  EXPECT_EQ(draw(3), draw(3));
  EXPECT_NE(draw(3), draw(4));
}

TEST(LexerEdges, NumbersAndEscapes) {
  EXPECT_DOUBLE_EQ(t::parse_term("1.5e-3").float_value(), 0.0015);
  EXPECT_DOUBLE_EQ(t::parse_term("2.5E+2").float_value(), 250.0);
  EXPECT_EQ(t::parse_term("1+2").functor(), "+");  // no spaces
}

TEST(LexerEdges, QuotedAtomEscapes) {
  auto a = t::parse_term(R"('a\'b')");
  EXPECT_EQ(a.functor(), "a'b");
  auto b = t::parse_term(R"('back\\slash')");
  EXPECT_EQ(b.functor(), "back\\slash");
  // Round trip through the writer.
  EXPECT_EQ(t::parse_term(t::format_term(a)).functor(), "a'b");
  EXPECT_EQ(t::parse_term(t::format_term(b)).functor(), "back\\slash");
}

TEST(WriterEdges, EmptyTupleAndNilQuote) {
  EXPECT_EQ(t::format_term(t::parse_term("{}")), "{}");
  EXPECT_EQ(t::format_term(t::parse_term("[]")), "[]");
  // Atom that looks like an operator prints bare and reparses.
  EXPECT_EQ(t::format_term(t::parse_term("'+'")), "+");
  EXPECT_TRUE(t::parse_term("+").is_atom());
}

TEST(TreeReduce2Stats, TotalsOnBalancedTree) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  auto tr = m::balanced_tree<long, char>(
      128, [](std::size_t) { return 1L; }, '+');
  m::TR2Stats stats;
  auto add = [](const char&, const long& a, const long& b) { return a + b; };
  EXPECT_EQ((m::tree_reduce2<long, char>(mach, tr, add, &stats)), 128);
  // 127 internal nodes, two deliveries each.
  EXPECT_EQ(stats.local_values + stats.remote_values, 254u);
}

TEST(PipelineManyStages, EightStageChain) {
  rt::Machine mach({.nodes = 4, .workers = 2});
  m::Pipeline<long> p(mach, 8);
  long next = 0;
  long sum = 0;
  p.source([&]() -> std::optional<long> {
    if (next >= 500) return std::nullopt;
    return next++;
  });
  for (int s = 0; s < 8; ++s) {
    p.stage([](long v) { return v + 1; });
  }
  p.sink([&](long v) { sum += v; });
  EXPECT_EQ(p.run(), 500u);
  EXPECT_EQ(sum, 500L * 499 / 2 + 500 * 8);
}
