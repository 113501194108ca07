#include "motifs/graph.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <utility>

#include "motifs/parallel_for.hpp"

namespace motif {

Graph Graph::from_edges(
    std::size_t n,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    bool undirected) {
  Graph g;
  std::vector<std::size_t> degree(n, 0);
  for (const auto& [a, b] : edges) {
    ++degree[a];
    if (undirected) ++degree[b];
  }
  g.offsets_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    g.offsets_[v + 1] = g.offsets_[v] + degree[v];
  }
  g.targets_.resize(g.offsets_[n]);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [a, b] : edges) {
    g.targets_[cursor[a]++] = b;
    if (undirected) g.targets_[cursor[b]++] = a;
  }
  return g;
}

Graph Graph::random_gnp(std::size_t n, double p, rt::Rng& rng) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  // Geometric skipping: expected O(n^2 p) work.
  if (n >= 2 && p > 0.0) {
    double log1mp = std::log(1.0 - std::min(p, 0.999999999999));
    std::int64_t v = 1, w = -1;
    while (static_cast<std::size_t>(v) < n) {
      double u;
      do {
        u = rng.uniform();
      } while (u == 0.0);
      w += 1 + static_cast<std::int64_t>(std::floor(std::log(u) / log1mp));
      while (w >= v && static_cast<std::size_t>(v) < n) {
        w -= v;
        ++v;
      }
      if (static_cast<std::size_t>(v) < n) {
        edges.emplace_back(static_cast<std::uint32_t>(v),
                           static_cast<std::uint32_t>(w));
      }
    }
  }
  return from_edges(n, edges, true);
}

Graph Graph::ring_with_chords(std::size_t n, std::size_t extra,
                              rt::Rng& rng) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::size_t v = 0; v < n; ++v) {
    edges.emplace_back(static_cast<std::uint32_t>(v),
                       static_cast<std::uint32_t>((v + 1) % n));
  }
  for (std::size_t k = 0; k < extra; ++k) {
    auto a = static_cast<std::uint32_t>(rng.below(n));
    auto b = static_cast<std::uint32_t>(rng.below(n));
    if (a != b) edges.emplace_back(a, b);
  }
  return from_edges(n, edges, true);
}

std::vector<std::int32_t> bfs_sequential(const Graph& g, std::uint32_t src) {
  std::vector<std::int32_t> dist(g.vertex_count(), kUnreached);
  std::deque<std::uint32_t> q;
  dist[src] = 0;
  q.push_back(src);
  while (!q.empty()) {
    const std::uint32_t v = q.front();
    q.pop_front();
    for (const std::uint32_t* it = g.neighbors_begin(v);
         it != g.neighbors_end(v); ++it) {
      if (dist[*it] == kUnreached) {
        dist[*it] = dist[v] + 1;
        q.push_back(*it);
      }
    }
  }
  return dist;
}

std::vector<std::int32_t> parallel_bfs(rt::Machine& m, const Graph& g,
                                       std::uint32_t src) {
  const std::size_t n = g.vertex_count();
  std::vector<std::atomic<std::int32_t>> dist(n);
  for (auto& d : dist) d.store(kUnreached, std::memory_order_relaxed);
  dist[src].store(0, std::memory_order_relaxed);

  std::vector<std::uint32_t> frontier{src};
  std::int32_t level = 0;
  std::vector<std::vector<std::uint32_t>> nexts(m.node_count());

  while (!frontier.empty()) {
    // One frontier block per processor; each claims unreached neighbours
    // by CAS and hands them over in its own next-frontier slot. It fills
    // a local vector: the slots' headers share cache lines.
    const std::uint32_t blocks = parallel_blocks(
        m, 0, frontier.size(),
        [&](std::uint32_t b, std::size_t i0, std::size_t i1) {
          std::vector<std::uint32_t> local;
          for (std::size_t i = i0; i < i1; ++i) {
            const std::uint32_t v = frontier[i];
            for (const std::uint32_t* it = g.neighbors_begin(v);
                 it != g.neighbors_end(v); ++it) {
              std::int32_t expect = kUnreached;
              if (dist[*it].compare_exchange_strong(
                      expect, level + 1, std::memory_order_relaxed)) {
                local.push_back(*it);
              }
            }
          }
          nexts[b] = std::move(local);
        });
    frontier.clear();
    for (std::uint32_t b = 0; b < blocks; ++b) {
      frontier.insert(frontier.end(), nexts[b].begin(), nexts[b].end());
    }
    ++level;
  }

  std::vector<std::int32_t> out(n);
  for (std::size_t v = 0; v < n; ++v) {
    out[v] = dist[v].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<std::uint32_t> connected_components(rt::Machine& m,
                                                const Graph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<std::uint32_t> comp(n, static_cast<std::uint32_t>(-1));
  std::uint32_t next_id = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (comp[v] != static_cast<std::uint32_t>(-1)) continue;
    auto dist = parallel_bfs(m, g, v);
    for (std::uint32_t u = 0; u < n; ++u) {
      if (dist[u] != kUnreached) comp[u] = next_id;
    }
    ++next_id;
  }
  return comp;
}

}  // namespace motif
