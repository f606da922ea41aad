#include "core/layered_graph.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/require.h"

namespace wmatch::core {

Parametrization random_parametrization(std::size_t n, Rng& rng) {
  Parametrization side(n);
  for (auto& s : side) s = rng.next_bool(0.5) ? 1 : 0;
  return side;
}

CrossingEdges crossing_edges(const GraphView& g, const Matching& m,
                             const Parametrization& par) {
  WMATCH_REQUIRE(par.size() == g.num_vertices(), "parametrization size");
  CrossingEdges out;
  for (const Edge& e : g.edges()) {
    if (par[e.u] == par[e.v]) continue;
    if (m.contains(e)) {
      // Orient u in L (side 0), v in R.
      Edge oriented = par[e.u] == 0 ? e : Edge{e.v, e.u, e.w};
      out.matched.push_back(oriented);
    } else {
      // Orient u in R, v in L (the direction Y edges travel).
      Edge oriented = par[e.u] == 1 ? e : Edge{e.v, e.u, e.w};
      out.unmatched.push_back(oriented);
    }
  }
  return out;
}

BucketedEdges bucket_edges(const CrossingEdges& edges, Weight unit, int umax) {
  WMATCH_REQUIRE(unit >= 1 && umax >= 1, "bad bucket parameters");
  BucketedEdges out;
  out.unit = unit;
  out.matched.assign(static_cast<std::size_t>(umax) + 1, {});
  out.unmatched.assign(static_cast<std::size_t>(umax) + 1, {});
  for (const Edge& e : edges.matched) {
    Weight units = (e.w + unit - 1) / unit;  // ceil: w in ((a-1)U, aU]
    if (units >= 1 && units <= umax) {
      out.matched[static_cast<std::size_t>(units)].push_back(e);
    }
  }
  for (const Edge& e : edges.unmatched) {
    Weight units = e.w / unit;  // floor: w in [bU, (b+1)U)
    if (units >= 1 && units <= umax) {
      out.unmatched[static_cast<std::size_t>(units)].push_back(e);
    }
  }
  return out;
}

std::vector<int> BucketedEdges::matched_values() const {
  std::vector<int> out;
  for (std::size_t a = 1; a < matched.size(); ++a) {
    if (!matched[a].empty()) out.push_back(static_cast<int>(a));
  }
  return out;
}

std::vector<int> BucketedEdges::unmatched_values() const {
  std::vector<int> out;
  for (std::size_t b = 1; b < unmatched.size(); ++b) {
    if (!unmatched[b].empty()) out.push_back(static_cast<int>(b));
  }
  return out;
}

LayeredGraph build_layered_graph(const BucketedEdges& edges,
                                 const Matching& m, const Parametrization& par,
                                 const TauPair& tau, std::size_t n,
                                 const runtime::RuntimeConfig& rt) {
  const std::size_t layers = tau.num_layers();
  WMATCH_REQUIRE(layers >= 2, "layered graph needs >= 2 layers");
  const std::size_t k = layers - 1;
  const int umax = static_cast<int>(edges.matched.size()) - 1;

  LayeredGraph out;
  out.layers = layers;

  // Fast reject: every layer with a positive threshold and every gap must
  // have candidate edges (an endpoint layer with tau_a > 0 only admits
  // X-matched vertices, so its bucket must be non-empty too).
  for (std::size_t t = 0; t < layers; ++t) {
    int a = tau.tau_a[t];
    if (a > umax) return out;
    if (a > 0 && edges.matched[static_cast<std::size_t>(a)].empty()) {
      return out;
    }
  }
  for (int b : tau.tau_b) {
    if (b > umax || edges.unmatched[static_cast<std::size_t>(b)].empty()) {
      return out;
    }
  }

  // Matched-vertex presence per layer, keyed by t*n + v. Hash maps keep
  // the per-pair cost proportional to the bucket sizes, not to n.
  std::unordered_set<std::uint64_t> x_present;
  for (std::size_t t = 0; t < layers; ++t) {
    int a = tau.tau_a[t];
    if (a <= 0) continue;
    for (const Edge& e : edges.matched[static_cast<std::size_t>(a)]) {
      x_present.insert(static_cast<std::uint64_t>(t) * n + e.u);
      x_present.insert(static_cast<std::uint64_t>(t) * n + e.v);
    }
  }

  auto present = [&](std::size_t t, Vertex v) -> bool {
    if (x_present.count(static_cast<std::uint64_t>(t) * n + v)) return true;
    if (t == 0) {
      return par[v] == 1 && !m.is_matched(v) && tau.tau_a[0] == 0;
    }
    if (t == k) {
      return par[v] == 0 && !m.is_matched(v) && tau.tau_a[k] == 0;
    }
    return false;  // intermediate layers require a kept matched edge
  };

  struct RawEdge {
    std::size_t tu, tv;
    Vertex u, v;
    Weight w;
    bool between;
  };
  std::vector<RawEdge> raw;

  // Intermediate X edges (first/last-layer matched edges belong to L but
  // are removed in L').
  for (std::size_t t = 1; t + 1 < layers; ++t) {
    int a = tau.tau_a[t];
    if (a <= 0) continue;
    for (const Edge& e : edges.matched[static_cast<std::size_t>(a)]) {
      raw.push_back({t, t, e.u, e.v, e.w, false});
    }
  }

  // Y edges between consecutive layers (u in R at t, v in L at t+1). The
  // gaps are independent and read-only over x_present/m/par, so they are
  // filtered on the thread pool; per-gap results are concatenated in gap
  // order, which keeps the construction schedule-independent. Small builds
  // run inline — the output never depends on the pool, only the wall
  // clock does.
  std::size_t gap_work = 0;
  for (int b : tau.tau_b) {
    gap_work += edges.unmatched[static_cast<std::size_t>(b)].size();
  }
  runtime::ThreadPool& pool = runtime::pool_for(
      gap_work >= 4096 ? rt : runtime::RuntimeConfig{1});
  std::vector<RawEdge> yedges = runtime::parallel_reduce(
      pool, k, 1, std::vector<RawEdge>{},
      [&](std::size_t lo, std::size_t hi) {
        std::vector<RawEdge> part;
        for (std::size_t t = lo; t < hi; ++t) {
          int b = tau.tau_b[t];
          for (const Edge& e : edges.unmatched[static_cast<std::size_t>(b)]) {
            if (!present(t, e.u) || !present(t + 1, e.v)) continue;
            part.push_back({t, t + 1, e.u, e.v, e.w, true});
          }
        }
        return part;
      },
      [](std::vector<RawEdge> acc, std::vector<RawEdge> part) {
        if (acc.empty()) return part;  // move, don't copy (single chunk)
        acc.insert(acc.end(), part.begin(), part.end());
        return acc;
      });
  const std::size_t between = yedges.size();
  // raw (intermediate X edges) and yedges stay separate vectors — the Y
  // set dominates and appending it to raw would copy it once more per
  // tau-pair build.
  auto for_each_raw = [&](auto&& f) {
    for (const RawEdge& e : raw) f(e);
    for (const RawEdge& e : yedges) f(e);
  };

  out.num_between_edges = between;
  if (between == 0) {
    out.num_between_edges = 0;
    return out;
  }

  // Compress the (layer, vertex) pairs that occur on at least one edge.
  std::unordered_map<std::uint64_t, std::uint32_t> id;
  id.reserve((raw.size() + yedges.size()) * 2);
  auto intern = [&](std::size_t t, Vertex v) -> std::uint32_t {
    auto [it, inserted] = id.try_emplace(
        static_cast<std::uint64_t>(t) * n + v,
        static_cast<std::uint32_t>(out.original.size()));
    if (inserted) {
      out.original.push_back(v);
      out.layer_of.push_back(static_cast<std::uint16_t>(t + 1));
      out.side.push_back(par[v]);
    }
    return it->second;
  };
  for_each_raw([&](const RawEdge& e) {
    intern(e.tu, e.u);
    intern(e.tv, e.v);
  });

  Graph lp(out.original.size());
  Matching ml(out.original.size());
  for_each_raw([&](const RawEdge& e) {
    std::uint32_t cu = id[static_cast<std::uint64_t>(e.tu) * n + e.u];
    std::uint32_t cv = id[static_cast<std::uint64_t>(e.tv) * n + e.v];
    lp.add_edge(cu, cv, e.w);
    if (!e.between) ml.add(cu, cv, e.w);
  });
  out.lprime = GraphView(std::move(lp));
  out.ml = std::move(ml);
  return out;
}

}  // namespace wmatch::core
