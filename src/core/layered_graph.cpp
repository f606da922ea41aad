#include "core/layered_graph.h"

#include <algorithm>
#include <limits>

#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/require.h"

namespace wmatch::core {

namespace {

/// The matched-edge bucket of weight w: ceil(w / U), i.e. the a with
/// w in ((a-1)U, aU].
Weight matched_units(Weight w, Weight unit) { return (w + unit - 1) / unit; }

/// Builds whose gaps hold fewer candidate Y edges than this filter them
/// inline; below it the pool hand-off costs more than the filter.
constexpr std::size_t kPoolGapWork = 4096;

}  // namespace

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
    Weight units = matched_units(e.w, unit);
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

  // Presence of v in layer t, by its own matched edge. A layer with
  // tau_a > 0 keeps the matched crossing edges of bucket tau_a, and in a
  // simple graph v has at most one matched edge, M(v); so v is present iff
  // M(v) exists, crosses the bipartition and lies in that bucket. An
  // endpoint layer with tau_a = 0 keeps the M-free vertices of its side.
  auto present = [&](std::size_t t, Vertex v) -> bool {
    const int a = tau.tau_a[t];
    if (a > 0) {
      const Vertex mate = m.mate(v);
      return mate != kNoVertex && par[v] != par[mate] &&
             matched_units(m.weight_at(v), edges.unit) == a;
    }
    if (a < 0 || m.is_matched(v)) return false;
    if (t == 0) return par[v] == 1;
    if (t == k) return par[v] == 0;
    return false;  // intermediate layers require a kept matched edge
  };

  struct RawEdge {
    std::size_t tu, tv;
    Vertex u, v;
    Weight w;
    bool between;
  };

  // Y edges between consecutive layers (u in R at t, v in L at t+1). The
  // gaps are independent and read-only over m/par; per-gap results are
  // concatenated in gap order, which keeps the construction
  // schedule-independent. Large builds filter the gaps on the thread pool;
  // small ones, and any build under a one-thread runtime, run inline
  // without touching the pool registry. The output never depends on the
  // pool, only the wall clock does.
  auto filter_gaps = [&](std::size_t lo, std::size_t hi) {
    std::vector<RawEdge> part;
    for (std::size_t t = lo; t < hi; ++t) {
      int b = tau.tau_b[t];
      for (const Edge& e : edges.unmatched[static_cast<std::size_t>(b)]) {
        if (!present(t, e.u) || !present(t + 1, e.v)) continue;
        part.push_back({t, t + 1, e.u, e.v, e.w, true});
      }
    }
    return part;
  };
  std::size_t gap_work = 0;
  for (int b : tau.tau_b) {
    gap_work += edges.unmatched[static_cast<std::size_t>(b)].size();
  }
  std::vector<RawEdge> yedges;
  if (gap_work < kPoolGapWork ||
      runtime::resolve_num_threads(rt.num_threads) == 1) {
    yedges = filter_gaps(0, k);
  } else {
    yedges = runtime::parallel_reduce(
        runtime::pool_for(rt), k, 1, std::vector<RawEdge>{}, filter_gaps,
        [](std::vector<RawEdge> acc, std::vector<RawEdge> part) {
          if (acc.empty()) return part;  // move, don't copy (single chunk)
          acc.insert(acc.end(), part.begin(), part.end());
          return acc;
        });
  }
  out.num_between_edges = yedges.size();
  if (yedges.empty()) return out;

  // Intermediate X edges (first/last-layer matched edges belong to L but
  // are removed in L'). They are kept apart from yedges: the Y set
  // dominates, and appending it would copy it once more per build.
  std::vector<RawEdge> xedges;
  for (std::size_t t = 1; t + 1 < layers; ++t) {
    int a = tau.tau_a[t];
    if (a <= 0) continue;
    for (const Edge& e : edges.matched[static_cast<std::size_t>(a)]) {
      xedges.push_back({t, t, e.u, e.v, e.w, false});
    }
  }
  auto for_each_raw = [&](auto&& f) {
    for (const RawEdge& e : xedges) f(e);
    for (const RawEdge& e : yedges) f(e);
  };

  // Compress the (layer, vertex) pairs that occur on at least one edge,
  // numbered in first-occurrence order (X edges, then Y edges) through a
  // dense table indexed by t*n + v.
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> id(layers * n, kUnset);
  auto intern = [&](std::size_t t, Vertex v) {
    std::uint32_t& slot = id[t * n + v];
    if (slot != kUnset) return;
    slot = static_cast<std::uint32_t>(out.original.size());
    out.original.push_back(v);
    out.layer_of.push_back(static_cast<std::uint16_t>(t + 1));
    out.side.push_back(par[v]);
  };
  for_each_raw([&](const RawEdge& e) {
    intern(e.tu, e.u);
    intern(e.tv, e.v);
  });

  Graph lp(out.original.size());
  Matching ml(out.original.size());
  for_each_raw([&](const RawEdge& e) {
    std::uint32_t cu = id[e.tu * n + e.u];
    std::uint32_t cv = id[e.tv * n + e.v];
    lp.add_edge(cu, cv, e.w);
    if (!e.between) ml.add(cu, cv, e.w);
  });
  out.lprime = GraphView(std::move(lp));
  out.ml = std::move(ml);
  return out;
}

}  // namespace wmatch::core
