#include "gen/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/require.h"

namespace wmatch::gen {

Graph erdos_renyi(std::size_t n, std::size_t m, Rng& rng) {
  WMATCH_REQUIRE(n >= 2, "need at least two vertices");
  std::size_t max_edges = n * (n - 1) / 2;
  WMATCH_REQUIRE(m <= max_edges, "too many edges requested");
  Graph g(n);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m * 2);
  while (seen.size() < m) {
    Vertex u = static_cast<Vertex>(rng.next_below(n));
    Vertex v = static_cast<Vertex>(rng.next_below(n));
    if (u == v) continue;
    Edge e{u, v, 1};
    if (seen.insert(e.key()).second) g.add_edge(u, v, 1);
  }
  return g;
}

Graph random_bipartite(std::size_t n_left, std::size_t n_right, std::size_t m,
                       Rng& rng) {
  WMATCH_REQUIRE(n_left >= 1 && n_right >= 1, "empty side");
  WMATCH_REQUIRE(m <= n_left * n_right, "too many edges requested");
  Graph g(n_left + n_right);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m * 2);
  while (seen.size() < m) {
    Vertex u = static_cast<Vertex>(rng.next_below(n_left));
    Vertex v = static_cast<Vertex>(n_left + rng.next_below(n_right));
    Edge e{u, v, 1};
    if (seen.insert(e.key()).second) g.add_edge(u, v, 1);
  }
  return g;
}

Graph barabasi_albert(std::size_t n, std::size_t attach, Rng& rng) {
  WMATCH_REQUIRE(attach >= 1, "attach must be positive");
  WMATCH_REQUIRE(n > attach, "n must exceed attachment count");
  Graph g(n);
  // Endpoint pool: each vertex appears once per incident edge, so sampling
  // uniformly from the pool is degree-proportional sampling.
  std::vector<Vertex> pool;
  pool.reserve(2 * n * attach);
  // Seed clique on attach+1 vertices.
  for (Vertex u = 0; u <= attach; ++u) {
    for (Vertex v = u + 1; v <= attach; ++v) {
      g.add_edge(u, v, 1);
      pool.push_back(u);
      pool.push_back(v);
    }
  }
  for (Vertex v = static_cast<Vertex>(attach + 1); v < n; ++v) {
    std::unordered_set<Vertex> targets;
    while (targets.size() < attach) {
      Vertex t = pool[rng.next_below(pool.size())];
      if (t != v) targets.insert(t);
    }
    for (Vertex t : targets) {
      g.add_edge(v, t, 1);
      pool.push_back(v);
      pool.push_back(t);
    }
  }
  return g;
}

Graph random_geometric(std::size_t n, double radius, Weight scale, Rng& rng,
                       const runtime::RuntimeConfig& rt) {
  WMATCH_REQUIRE(radius > 0 && scale > 0, "bad geometric parameters");
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.next_double();
    y[i] = rng.next_double();
  }
  // The pair scan is pure in the (sequentially drawn) coordinates, so rows
  // are scanned on the thread pool and concatenated in row order — the
  // edge list comes out in the same order as the sequential double loop.
  // Small instances run inline (identical output, no pool overhead).
  runtime::ThreadPool& pool = runtime::pool_for(
      n >= 256 ? rt : runtime::RuntimeConfig{1});
  std::vector<Edge> found = runtime::parallel_reduce(
      pool, n, 16, std::vector<Edge>{},
      [&](std::size_t lo, std::size_t hi) {
        std::vector<Edge> part;
        for (std::size_t u = lo; u < hi; ++u) {
          for (std::size_t v = u + 1; v < n; ++v) {
            double dx = x[u] - x[v];
            double dy = y[u] - y[v];
            double dist = std::sqrt(dx * dx + dy * dy);
            if (dist <= radius) {
              Weight w = static_cast<Weight>(std::llround(
                             static_cast<double>(scale) *
                             (1.0 - dist / radius))) +
                         1;
              part.push_back({static_cast<Vertex>(u),
                              static_cast<Vertex>(v), w});
            }
          }
        }
        return part;
      },
      [](std::vector<Edge> acc, std::vector<Edge> part) {
        acc.insert(acc.end(), part.begin(), part.end());
        return acc;
      });
  Graph g(n);
  for (const Edge& e : found) g.add_edge(e.u, e.v, e.w);
  return g;
}

Graph path_graph(const std::vector<Weight>& weights) {
  Graph g(weights.size() + 1);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    g.add_edge(static_cast<Vertex>(i), static_cast<Vertex>(i + 1), weights[i]);
  }
  return g;
}

Graph cycle_graph(const std::vector<Weight>& weights) {
  WMATCH_REQUIRE(weights.size() >= 3, "cycle needs >= 3 edges");
  std::size_t n = weights.size();
  Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.add_edge(static_cast<Vertex>(i), static_cast<Vertex>((i + 1) % n),
               weights[i]);
  }
  return g;
}

std::vector<Edge> random_stream(const GraphView& g, Rng& rng) {
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  rng.shuffle(edges);
  return edges;
}

std::vector<Edge> increasing_weight_stream(const GraphView& g) {
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  std::stable_sort(edges.begin(), edges.end(),
                   [](const Edge& a, const Edge& b) { return a.w < b.w; });
  return edges;
}

std::vector<Edge> decreasing_weight_stream(const GraphView& g) {
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  std::stable_sort(edges.begin(), edges.end(),
                   [](const Edge& a, const Edge& b) { return a.w > b.w; });
  return edges;
}

std::vector<Edge> clustered_stream(const GraphView& g) {
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  std::stable_sort(edges.begin(), edges.end(), [](const Edge& a,
                                                  const Edge& b) {
    return std::min(a.u, a.v) < std::min(b.u, b.v);
  });
  return edges;
}

}  // namespace wmatch::gen
