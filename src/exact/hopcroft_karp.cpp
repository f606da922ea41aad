#include "exact/hopcroft_karp.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>

#include "obs/obs.h"
#include "util/require.h"

namespace wmatch::exact {

namespace {
constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kNoEdge = std::numeric_limits<std::uint32_t>::max();
}  // namespace

std::vector<char> bipartition_of(const GraphView& g) {
  std::vector<char> color(g.num_vertices(), -1);
  std::queue<Vertex> q;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (color[s] != -1) continue;
    color[s] = 0;
    q.push(s);
    while (!q.empty()) {
      Vertex v = q.front();
      q.pop();
      for (Vertex u : g.neighbors(v)) {
        if (color[u] == -1) {
          color[u] = static_cast<char>(1 - color[v]);
          q.push(u);
        } else if (color[u] == color[v]) {
          return {};
        }
      }
    }
  }
  return color;
}

HopcroftKarpResult hopcroft_karp(const GraphView& g,
                                 const std::vector<char>& side,
                                 std::size_t max_phases,
                                 const Matching* initial) {
  const std::size_t n = g.num_vertices();
  WMATCH_REQUIRE(side.size() == n, "side vector size mismatch");
  for (const Edge& e : g.edges()) {
    WMATCH_REQUIRE(side[e.u] != side[e.v], "edge within one side");
  }

  // match_edge[v] = index of the matched edge at v, or kNoEdge.
  std::vector<std::uint32_t> match_edge(n, kNoEdge);
  if (initial) {
    WMATCH_REQUIRE(initial->num_vertices() == n, "initial matching size");
    for (const Edge& me : initial->edges()) {
      bool found = false;
      for (std::uint32_t ei : g.incident(me.u)) {
        if (g.edge(ei).has_endpoint(me.v)) {
          match_edge[me.u] = ei;
          match_edge[me.v] = ei;
          found = true;
          break;
        }
      }
      WMATCH_REQUIRE(found, "initial matching edge not in graph");
    }
  }

  auto mate = [&](Vertex v) -> Vertex {
    return match_edge[v] == kNoEdge ? kNoVertex
                                    : g.edge(match_edge[v]).other(v);
  };
  auto free_left = [&](Vertex v) {
    return side[v] == 0 && match_edge[v] == kNoEdge;
  };

  // Alternating BFS from every free left vertex: free left roots get 0,
  // right vertices odd levels, their mates the next even level. It labels
  // every reachable level (it does not stop at the first free right
  // vertex) and returns whether any free right vertex is reachable.
  std::vector<std::uint32_t> dist(n);
  std::vector<Vertex> queue;
  auto bfs = [&]() -> bool {
    std::fill(dist.begin(), dist.end(), kInf);
    queue.clear();
    for (Vertex v = 0; v < n; ++v) {
      if (free_left(v)) {
        dist[v] = 0;
        queue.push_back(v);
      }
    }
    bool reachable_free_right = false;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex v = queue[head];
      for (std::uint32_t ei : g.incident(v)) {
        if (ei == match_edge[v]) continue;  // leave on non-matching
        const Vertex u = g.edge(ei).other(v);
        if (dist[u] != kInf) continue;
        dist[u] = dist[v] + 1;
        const Vertex w = mate(u);
        if (w == kNoVertex) {
          reachable_free_right = true;
        } else {
          dist[w] = dist[v] + 2;  // reachable only through u
          queue.push_back(w);
        }
      }
    }
    return reachable_free_right;
  };

  // One DFS from `root` along the dist levels. A right vertex whose
  // subtree is exhausted is retired (dist = kInf) for the rest of the
  // phase: its subtree only moves to larger levels, so it is fruitless
  // whatever the path prefix, and the search space only shrinks as paths
  // commit. On success the path is flipped into the matching and all its
  // vertices are retired, which keeps the phase's paths vertex-disjoint.
  struct Frame {
    Vertex v;             // left vertex being expanded
    std::size_t it;       // next incident-edge slot of v
    std::uint32_t entry;  // non-matching edge into v's mate (kNoEdge: root)
  };
  std::vector<Frame> stack;
  auto flip = [&](std::uint32_t ei) {
    const Edge& e = g.edge(ei);
    match_edge[e.u] = match_edge[e.v] = ei;
    dist[e.u] = dist[e.v] = kInf;
  };
  auto augment_from = [&](Vertex root) {
    stack.assign(1, {root, 0, kNoEdge});
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto inc = g.incident(f.v);
      bool descended = false;
      for (; f.it < inc.size(); ++f.it) {
        const std::uint32_t ei = inc[f.it];
        if (ei == match_edge[f.v]) continue;
        const Vertex u = g.edge(ei).other(f.v);
        if (dist[u] != dist[f.v] + 1) continue;
        const Vertex w = mate(u);
        if (w == kNoVertex) {
          for (const Frame& fr : stack) {
            if (fr.entry != kNoEdge) flip(fr.entry);
          }
          flip(ei);
          return;
        }
        if (dist[w] == dist[u] + 1) {
          ++f.it;  // resume after this edge when the subtree fails
          stack.push_back({w, 0, ei});
          descended = true;
          break;
        }
        dist[u] = kInf;  // matched off-level: a dead end for this phase
      }
      if (descended) continue;
      // f.v is exhausted, so the right vertex it was entered through (its
      // mate; `entry` ends there, not at f.v) is fruitless.
      if (f.entry != kNoEdge) dist[mate(f.v)] = kInf;
      stack.pop_back();
    }
  };

  std::size_t phases = 0;
  obs::Counter& phase_counter = obs::counter("hk.phases");
  while (max_phases == 0 || phases < max_phases) {
    // Spans and the hk.phases counter observe the loop without changing it.
    obs::Span phase_span("hk.phase", static_cast<std::int64_t>(phases));
    bool layered = false;
    {
      obs::Span bfs_span("hk.bfs");
      layered = bfs();
    }
    if (!layered) break;
    {
      // No progress check is needed: a reachable free right vertex
      // guarantees at least one augmentation.
      obs::Span dfs_span("hk.dfs");
      for (Vertex v = 0; v < n; ++v) {
        if (free_left(v)) augment_from(v);
      }
    }
    ++phases;
    phase_counter.add();
  }

  Matching m(n);
  for (Vertex v = 0; v < n; ++v) {
    if (match_edge[v] != kNoEdge && v < mate(v)) m.add(g.edge(match_edge[v]));
  }
  return {std::move(m), phases};
}

}  // namespace wmatch::exact
