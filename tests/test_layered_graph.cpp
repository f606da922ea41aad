#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/layered_graph.h"
#include "exact/hopcroft_karp.h"
#include "gen/generators.h"
#include "gen/weights.h"
#include "graph/augmentation.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/require.h"
#include "util/rng.h"

namespace wmatch {
namespace {

using core::CrossingEdges;
using core::LayeredGraph;
using core::Parametrization;
using core::TauPair;

LayeredGraph build(const CrossingEdges& ce, const Matching& m,
                   const Parametrization& par, const TauPair& tau,
                   Weight unit, std::size_t n, int umax = 20) {
  return core::build_layered_graph(core::bucket_edges(ce, unit, umax), m, par,
                                   tau, n);
}

TEST(Parametrize, SplitsRoughlyInHalf) {
  Rng rng(1);
  Parametrization par = core::random_parametrization(1000, rng);
  std::size_t left = 0;
  for (char s : par) {
    if (s == 0) ++left;
  }
  EXPECT_GT(left, 400u);
  EXPECT_LT(left, 600u);
}

TEST(CrossingEdgesTest, OrientationInvariants) {
  Graph g(4);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 6);
  g.add_edge(2, 3, 7);
  g.add_edge(0, 3, 8);
  Matching m(4);
  m.add(0, 1, 5);
  Parametrization par{0, 1, 0, 1};  // L R L R
  CrossingEdges ce = core::crossing_edges(freeze(g), m, par);
  // Matched crossing: (0,1). Unmatched crossing: (1,2), (2,3), (0,3).
  ASSERT_EQ(ce.matched.size(), 1u);
  ASSERT_EQ(ce.unmatched.size(), 3u);
  EXPECT_EQ(par[ce.matched[0].u], 0);    // L first
  for (const Edge& e : ce.unmatched) {
    EXPECT_EQ(par[e.u], 1);  // R first (direction of Y edges)
    EXPECT_EQ(par[e.v], 0);
  }
}

TEST(CrossingEdgesTest, SameSideEdgesDropped) {
  Graph g(4);
  g.add_edge(0, 2, 5);
  Matching m(4);
  Parametrization par{0, 1, 0, 1};
  CrossingEdges ce = core::crossing_edges(freeze(g), m, par);
  EXPECT_TRUE(ce.matched.empty());
  EXPECT_TRUE(ce.unmatched.empty());
}

// A canonical 3-augmentation instance: path a(0) - u(1) = v(2) - b(3) where
// (1,2) is matched weight 10, wings weight 9 each. With unit 5:
// tau_a = (0, 2, 0) (middle matched edge <= 10), tau_b = (1, 1) (wings >= 5).
class LayeredFixture : public ::testing::Test {
 protected:
  LayeredFixture() : g_(4), m_(4) {
    g_.add_edge(0, 1, 9);
    g_.add_edge(1, 2, 10);
    g_.add_edge(2, 3, 9);
    m_.add(1, 2, 10);
    // 1 must be R (Y edges leave R), 2 must be ... path 0->1->2->3 across
    // layers: layer1 vertex 0 free (R), layer2 edge (1,2), layer3 vertex 3
    // free (L). Y1: (0 in R at L1) -> (1 or 2 in L at L2). So one of {1,2}
    // is L. Choose 1 = L? But Y from layer2 to layer3 leaves an R vertex of
    // layer 2. So 2 = R, 1 = L, 0 = R, 3 = L.
    par_ = {1, 0, 1, 0};
  }
  Graph g_;
  Matching m_;
  Parametrization par_;
};

TEST_F(LayeredFixture, CapturesPlantedThreeAugmentation) {
  CrossingEdges ce = core::crossing_edges(freeze(g_), m_, par_);
  TauPair tau{{0, 2, 0}, {1, 1}};
  LayeredGraph lg = build(ce, m_, par_, tau, 5, 4);
  EXPECT_EQ(lg.num_between_edges, 2u);
  // L' has: Y (0@1 -> 1@2), X (1,2)@2, Y (2@2 -> 3@3).
  EXPECT_EQ(lg.lprime.num_edges(), 3u);
  EXPECT_EQ(lg.ml.size(), 1u);
  // Bipartite with original sides.
  for (const Edge& e : lg.lprime.edges()) {
    EXPECT_NE(lg.side[e.u], lg.side[e.v]);
  }
}

TEST_F(LayeredFixture, ThresholdsFilterHeavyMatchedEdge) {
  CrossingEdges ce = core::crossing_edges(freeze(g_), m_, par_);
  // tau_a middle = 1 -> admits only w in (0,5]; the matched edge (w=10)
  // fails, so the intermediate layer is empty and no Y edge survives.
  TauPair tau{{0, 1, 0}, {1, 1}};
  LayeredGraph lg = build(ce, m_, par_, tau, 5, 4);
  EXPECT_EQ(lg.num_between_edges, 0u);
}

TEST_F(LayeredFixture, UnmatchedBandIsHalfOpen) {
  CrossingEdges ce = core::crossing_edges(freeze(g_), m_, par_);
  // b = 2 admits w in [10, 15); wings w=9 fail.
  TauPair tau{{0, 2, 0}, {2, 2}};
  LayeredGraph lg = build(ce, m_, par_, tau, 5, 4);
  EXPECT_EQ(lg.num_between_edges, 0u);
}

TEST_F(LayeredFixture, EndpointThresholdZeroRequiresFreeVertex) {
  // Make endpoint 0 matched (to a new vertex 4 via crossing edge) and keep
  // tau_a[0] = 0: vertex 0 must be filtered out of layer 1.
  Graph g(5);
  g.add_edge(0, 1, 9);
  g.add_edge(1, 2, 10);
  g.add_edge(2, 3, 9);
  g.add_edge(0, 4, 6);
  Matching m(5);
  m.add(1, 2, 10);
  m.add(0, 4, 6);
  Parametrization par{1, 0, 1, 0, 0};
  CrossingEdges ce = core::crossing_edges(freeze(g), m, par);
  TauPair tau{{0, 2, 0}, {1, 1}};
  LayeredGraph lg = build(ce, m, par, tau, 5, 5);
  // Y edge from 0@1 must be gone; only Y (2@2 -> 3@3) survives... but then
  // layer-2 vertex 1 keeps its X edge, which has no left support.
  for (const Edge& e : lg.lprime.edges()) {
    bool from_zero = lg.original[e.u] == 0 || lg.original[e.v] == 0;
    EXPECT_FALSE(from_zero && lg.layer_of[e.u] == 1);
  }
}

TEST_F(LayeredFixture, MatchedEndpointAdmittedWithPositiveTau) {
  // Same graph as above but tau_a[0] = 2 admits the matched edge (0,4)
  // (w=6 in (5,10]): the path may start at 0 and drop (0,4) too.
  Graph g(5);
  g.add_edge(0, 1, 9);
  g.add_edge(1, 2, 10);
  g.add_edge(2, 3, 9);
  g.add_edge(0, 4, 6);
  Matching m(5);
  m.add(1, 2, 10);
  m.add(0, 4, 6);
  Parametrization par{1, 0, 1, 0, 0};
  CrossingEdges ce = core::crossing_edges(freeze(g), m, par);
  // Unit 4: a1=2 admits (4,8] -> w(0,4)=6 passes; a2=3 admits (8,12] ->
  // w(1,2)=10 passes; b=2 admits [8,12) -> wings w=9 pass.
  TauPair tau{{2, 3, 0}, {2, 2}};
  LayeredGraph lg = build(ce, m, par, tau, 4, 5);
  EXPECT_GE(lg.num_between_edges, 1u);
  bool zero_in_layer1 = false;
  for (std::size_t i = 0; i < lg.original.size(); ++i) {
    if (lg.original[i] == 0 && lg.layer_of[i] == 1) zero_in_layer1 = true;
  }
  EXPECT_TRUE(zero_in_layer1);
}

// The build indexes its tables by layer * n + vertex, so n must be the
// vertex count of both the matching and the bipartition.
TEST_F(LayeredFixture, RejectsMismatchedVertexCount) {
  const core::BucketedEdges buckets =
      core::bucket_edges(core::crossing_edges(freeze(g_), m_, par_), 5, 20);
  const TauPair tau{{0, 2, 0}, {1, 1}};
  EXPECT_EQ(core::build_layered_graph(buckets, m_, par_, tau, 4)
                .lprime.num_vertices(),
            4u);
  for (std::size_t n : {0u, 3u, 5u}) {
    EXPECT_THROW(core::build_layered_graph(buckets, m_, par_, tau, n),
                 std::invalid_argument);
  }
  const Parametrization short_par(par_.begin(), par_.end() - 1);
  EXPECT_THROW(core::build_layered_graph(buckets, m_, short_par, tau, 4),
               std::invalid_argument);
}

TEST(LayeredGraphRandom, StructuralInvariants) {
  Rng rng(9);
  Graph g = gen::erdos_renyi(60, 300, rng);
  g = gen::assign_weights(g, gen::WeightDist::kUniform, 100, rng);
  Matching m(60);
  for (const Edge& e : g.edges()) {
    if (!m.is_matched(e.u) && !m.is_matched(e.v)) m.add(e);
  }
  Parametrization par = core::random_parametrization(60, rng);
  CrossingEdges ce = core::crossing_edges(freeze(g), m, par);
  core::TauConfig tcfg;
  auto pairs = core::generate_good_pairs(tcfg, rng);
  std::size_t checked = 0;
  for (const auto& tau : pairs) {
    if (checked > 60) break;
    LayeredGraph lg = build(ce, m, par, tau, core::quantum(80, tcfg), 60,
                            core::max_units(tcfg));
    if (lg.num_between_edges == 0) continue;
    ++checked;
    // (1) bipartite w.r.t. recorded sides;
    // (2) X edges stay within a layer, Y edges advance exactly one layer
    //     from R to L;
    // (3) ML' covers every X edge.
    std::size_t x_edges = 0;
    for (const Edge& e : lg.lprime.edges()) {
      EXPECT_NE(lg.side[e.u], lg.side[e.v]);
      auto lu = lg.layer_of[e.u], lv = lg.layer_of[e.v];
      if (lu == lv) {
        ++x_edges;
        EXPECT_TRUE(lg.ml.contains(e.u, e.v));
        EXPECT_GT(lu, 1);        // not first layer
        EXPECT_LT(lu, lg.layers);  // not last layer either
      } else {
        EXPECT_EQ(std::abs(int(lu) - int(lv)), 1);
        const auto& [r, l] = lu < lv ? std::pair(e.u, e.v) : std::pair(e.v, e.u);
        EXPECT_EQ(lg.side[r], 1);  // leaves an R vertex
        EXPECT_EQ(lg.side[l], 0);  // enters an L vertex
      }
    }
    EXPECT_EQ(x_edges, lg.ml.size());
  }
  EXPECT_GT(checked, 0u);
}

// The previous bucket_edges, kept as the exactness reference: each bucket
// in crossing order, with no witness index.
core::BucketedEdges reference_bucket_edges(const CrossingEdges& edges,
                                           Weight unit, int umax) {
  core::BucketedEdges out;
  out.unit = unit;
  out.matched.assign(static_cast<std::size_t>(umax) + 1, {});
  out.unmatched.assign(static_cast<std::size_t>(umax) + 1, {});
  for (const Edge& e : edges.matched) {
    Weight units = (e.w + unit - 1) / unit;
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

// An earlier build_layered_graph, kept verbatim as the exactness
// reference: it filters every gap's bucket by layer presence, read from a
// hash set of the kept matched edges' endpoints, and interns (layer,
// vertex) through a hash map. Run it on reference_bucket_edges.
LayeredGraph reference_build(const core::BucketedEdges& edges,
                             const Matching& m, const Parametrization& par,
                             const TauPair& tau, std::size_t n,
                             const runtime::RuntimeConfig& rt) {
  const std::size_t layers = tau.num_layers();
  const std::size_t k = layers - 1;
  const int umax = static_cast<int>(edges.matched.size()) - 1;

  LayeredGraph out;
  out.layers = layers;

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
    return false;
  };

  struct RawEdge {
    std::size_t tu, tv;
    Vertex u, v;
    Weight w;
    bool between;
  };
  std::vector<RawEdge> raw;
  for (std::size_t t = 1; t + 1 < layers; ++t) {
    int a = tau.tau_a[t];
    if (a <= 0) continue;
    for (const Edge& e : edges.matched[static_cast<std::size_t>(a)]) {
      raw.push_back({t, t, e.u, e.v, e.w, false});
    }
  }

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
        if (acc.empty()) return part;
        acc.insert(acc.end(), part.begin(), part.end());
        return acc;
      });
  const std::size_t between = yedges.size();
  auto for_each_raw = [&](auto&& f) {
    for (const RawEdge& e : raw) f(e);
    for (const RawEdge& e : yedges) f(e);
  };

  out.num_between_edges = between;
  if (between == 0) {
    out.num_between_edges = 0;
    return out;
  }

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

std::vector<Edge> edge_list(const GraphView& g) {
  return {g.edges().begin(), g.edges().end()};
}

// Field-by-field identity, in the order a consumer reads them.
void expect_same_build(const LayeredGraph& got, const LayeredGraph& want) {
  ASSERT_EQ(got.num_between_edges, want.num_between_edges);
  ASSERT_EQ(got.layers, want.layers);
  ASSERT_EQ(got.original, want.original);
  ASSERT_EQ(got.layer_of, want.layer_of);
  ASSERT_EQ(got.side, want.side);
  ASSERT_EQ(edge_list(got.lprime), edge_list(want.lprime));
  ASSERT_EQ(got.ml.edges(), want.ml.edges());
}

// The vertices of L' that an alternating search reaches from the
// ML'-free vertices of side `from` (1 = R, 0 = L): it leaves a vertex of
// that side by a non-ML' edge and a vertex of the other side by its ML'
// edge, and knows nothing of layers.
std::vector<char> alternating_reach(const LayeredGraph& lg, char from) {
  const GraphView& g = lg.lprime;
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<Vertex> queue;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (lg.side[v] == from && !lg.ml.is_matched(v)) {
      seen[v] = 1;
      queue.push_back(v);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex x = queue[head];
    for (Vertex y : g.neighbors(x)) {
      if (lg.ml.mate(x) == y || seen[y]) continue;
      seen[y] = 1;
      if (!lg.ml.is_matched(y)) continue;  // a free end: the path stops
      const Vertex next = lg.ml.mate(y);
      if (!seen[next]) {
        seen[next] = 1;
        queue.push_back(next);
      }
    }
  }
  return seen;
}

// Whether L' holds an ML'-augmenting path: the search from the ML'-free R
// vertices reaches an ML'-free L vertex.
bool has_augmenting_path(const LayeredGraph& lg) {
  const std::vector<char> reached = alternating_reach(lg, 1);
  for (Vertex v = 0; v < lg.lprime.num_vertices(); ++v) {
    if (reached[v] && lg.side[v] == 0 && !lg.ml.is_matched(v)) return true;
  }
  return false;
}

// The core of a full L': the vertices that the alternating search reaches
// both from the ML'-free R vertices and from the ML'-free L vertices, and
// the edges with both ends kept, renumbered by first occurrence in the
// full build's edge order. |Y| stays the full one.
LayeredGraph prune_to_core(const LayeredGraph& full) {
  const std::vector<char> from_r = alternating_reach(full, 1);
  const std::vector<char> from_l = alternating_reach(full, 0);
  LayeredGraph out;
  out.layers = full.layers;
  out.num_between_edges = full.num_between_edges;
  constexpr Vertex kUnset = std::numeric_limits<Vertex>::max();
  std::vector<Vertex> id(full.lprime.num_vertices(), kUnset);
  auto renumber = [&](Vertex v) {
    if (id[v] == kUnset) {
      id[v] = static_cast<Vertex>(out.original.size());
      out.original.push_back(full.original[v]);
      out.layer_of.push_back(full.layer_of[v]);
      out.side.push_back(full.side[v]);
    }
    return id[v];
  };
  struct Kept {
    Vertex u, v;
    Weight w;
    bool in_ml;
  };
  std::vector<Kept> kept;
  for (const Edge& e : full.lprime.edges()) {
    if (!from_r[e.u] || !from_l[e.u] || !from_r[e.v] || !from_l[e.v]) continue;
    const Vertex u = renumber(e.u);
    kept.push_back({u, renumber(e.v), e.w, full.ml.contains(e)});
  }
  Graph g(out.original.size());
  Matching ml(out.original.size());
  for (const Kept& e : kept) {
    g.add_edge(e.u, e.v, e.w);
    if (e.in_ml) ml.add(e.u, e.v, e.w);
  }
  out.lprime = GraphView(std::move(g));
  out.ml = std::move(ml);
  return out;
}

// The ML'-augmenting components of M' xor ML' for a maximum matching M'
// of L' (Hopcroft-Karp run to optimality).
std::size_t augmenting_components(const LayeredGraph& lg) {
  const Matching mprime = exact::hopcroft_karp(lg.lprime, lg.side).matching;
  std::size_t count = 0;
  for (const Augmentation& comp :
       symmetric_difference_components(mprime, lg.ml)) {
    if (comp.is_cycle) continue;
    std::size_t in_mprime = 0;
    for (const Edge& e : comp.edges) in_mprime += mprime.contains(e);
    count += 2 * in_mprime > comp.edges.size();
  }
  return count;
}

// The build against the full reference L': exactly its pruned core, with
// the full |Y|, walk marks that cover the core and lie in the full L', as
// many augmenting components under a maximum matching, and a non-empty
// core exactly when the independent search finds an augmenting path in
// the full L'.
void expect_core_of(const LayeredGraph& got, const LayeredGraph& full) {
  expect_same_build(got, prune_to_core(full));
  ASSERT_LE(got.lprime.num_vertices(), got.marked);
  ASSERT_LE(got.marked, full.lprime.num_vertices());
  ASSERT_EQ(augmenting_components(got), augmenting_components(full));
  ASSERT_EQ(got.lprime.num_vertices() > 0, has_augmenting_path(full));
}

// What the builds covered in a loop. Paths through a vertex that sits in
// two layers come from the unit-weight instances;
// BuildLayeredGraph.KeepsMarksPerLayer also plants one by hand.
struct CoreCoverage {
  std::size_t paths = 0, no_paths = 0;
  std::size_t died_inside = 0;  // every gap witnessed, yet no path
  // A non-empty core over >= 4 layers with a repeated interior tau_a, so
  // a vertex can sit in two layers of it.
  std::size_t deep_repeated = 0;

  void count(const TauPair& tau, const LayeredGraph& built,
             const core::BucketedEdges& buckets) {
    if (built.num_between_edges == 0) return;
    const bool path = built.lprime.num_vertices() > 0;
    path ? ++paths : ++no_paths;
    const std::size_t k = tau.num_layers() - 1;
    bool repeated = false;
    for (std::size_t t = 1; t + 2 <= k; ++t) {
      repeated |= tau.tau_a[t] == tau.tau_a[t + 1];
    }
    if (path && k >= 3 && repeated) ++deep_repeated;
    bool every_gap = true;
    for (std::size_t t = 0; t < k; ++t) {
      const int au = tau.tau_a[t], av = tau.tau_a[t + 1];
      every_gap &= (au > 0 || (au == 0 && t == 0)) &&
                   (av > 0 || (av == 0 && t + 1 == k)) &&
                   !buckets.witnesses(au, tau.tau_b[t], av).empty();
    }
    if (!path && every_gap) ++died_inside;
  }

  void expect_all() const {
    EXPECT_GT(paths, 0u);
    EXPECT_GT(no_paths, 0u);
    EXPECT_GT(died_inside, 0u);
    EXPECT_GT(deep_repeated, 0u);
  }
};

// A random matching of g: greedy over a shuffled edge order, each edge
// taken with probability 1/2 when both ends are free.
Matching random_matching(const Graph& g, Rng& rng) {
  std::vector<Edge> order(g.edges().begin(), g.edges().end());
  rng.shuffle(order);
  Matching m(g.num_vertices());
  for (const Edge& e : order) {
    if (!m.is_matched(e.u) && !m.is_matched(e.v) && rng.next_bool(0.5)) {
      m.add(e);
    }
  }
  return m;
}

// One random instance of the reference comparisons: a simple graph, a
// random matching and bipartition, and a class weight, bucketed both ways.
// Instances from kUnitFrom on have unit weights and a class weight of
// quantum 1, so every interior tau_a is 1: deep layered graphs whose paths
// pass a vertex that sits in two layers.
struct Instance {
  Matching m;
  Parametrization par;
  core::TauConfig cfg;
  core::BucketedEdges buckets;      // bucket_edges, with witness lists
  core::BucketedEdges ref_buckets;  // reference_bucket_edges
};

constexpr int kUnitFrom = 12, kInstances = 18;

Instance random_instance(std::size_t n, int inst, Rng& rng) {
  Instance out;
  const bool unit_weights = inst >= kUnitFrom;
  const std::size_t max_m = n * (n - 1) / 2;
  Graph g = gen::erdos_renyi(n, std::min<std::size_t>(max_m, 4 * n), rng);
  g = gen::assign_weights(
      g, unit_weights ? gen::WeightDist::kUnit : gen::WeightDist::kUniform,
      100, rng);
  out.m = random_matching(g, rng);
  out.par = core::random_parametrization(n, rng);
  out.cfg.max_layers = inst % 2 == 0 ? 4 : 6;
  out.cfg.granularity = inst % 3 == 0 ? 0.25 : 0.125;
  const Weight w_class =
      1 + static_cast<Weight>(rng.next_below(unit_weights ? 7 : 100));
  const Weight unit = core::quantum(w_class, out.cfg);
  const int umax = core::max_units(out.cfg);
  const CrossingEdges crossing = core::crossing_edges(freeze(g), out.m, out.par);
  out.buckets = core::bucket_edges(crossing, unit, umax);
  out.ref_buckets = reference_bucket_edges(crossing, unit, umax);
  return out;
}

// build_layered_graph must reproduce the core of the reference L' on every
// pair that pairs_for_values yields, over random simple graphs,
// matchings, bipartitions and class weights.
TEST(LayeredGraphRandom, MatchesReferenceBuild) {
  Rng rng(77);
  std::size_t builds = 0, nonempty = 0;
  CoreCoverage coverage;
  for (std::size_t n : {12u, 80u}) {
    for (int inst = 0; inst < kInstances; ++inst) {
      const Instance in = random_instance(n, inst, rng);
      ASSERT_EQ(in.buckets.matched_values(), in.ref_buckets.matched_values());
      ASSERT_EQ(in.buckets.unmatched_values(),
                in.ref_buckets.unmatched_values());
      for (const TauPair& tau : core::pairs_for_values(
               in.buckets.matched_values(), in.buckets.unmatched_values(),
               in.cfg, rng)) {
        const LayeredGraph got =
            core::build_layered_graph(in.buckets, in.m, in.par, tau, n);
        const LayeredGraph want =
            reference_build(in.ref_buckets, in.m, in.par, tau, n, {});
        expect_core_of(got, want);
        if (::testing::Test::HasFatalFailure()) return;
        coverage.count(tau, got, in.buckets);
        ++builds;
        if (want.num_between_edges > 0) ++nonempty;
      }
    }
  }
  EXPECT_GT(builds, 1000u);
  EXPECT_GT(nonempty, 100u);
  coverage.expect_all();
}

// The witness rules on hand-made pairs, good or not: an interior tau_a of
// 0 and a negative tau_a, which pairs_for_values never yields, tau_a > 0
// at both endpoints, and a tau_b whose bucket has edges but whose gap
// triple has none. The instances match some vertices by a non-crossing
// edge and some by a crossing edge above umax, whose gap key is none.
TEST(LayeredGraphRandom, HandMadePairsMatchReference) {
  Rng rng(31);
  std::size_t non_crossing = 0, above_umax = 0;
  std::size_t interior_zero = 0, negative = 0, positive_ends = 0,
              empty_triple = 0;
  CoreCoverage coverage;
  for (std::size_t n : {12u, 80u}) {
    for (int inst = 0; inst < kInstances; ++inst) {
      const Instance in = random_instance(n, inst, rng);
      const int umax = core::max_units(in.cfg);
      for (Vertex v = 0; v < n; ++v) {
        const Vertex mate = in.m.mate(v);
        if (mate == kNoVertex) continue;
        if (in.par[v] == in.par[mate]) {
          ++non_crossing;
        } else if ((in.m.weight_at(v) + in.buckets.unit - 1) /
                       in.buckets.unit > umax) {
          ++above_umax;
        }
      }
      // Thresholds: every occurring value, plus -1, 0 and umax + 1 for
      // tau_a, and an empty bucket for tau_b.
      std::vector<int> a_opts = in.buckets.matched_values();
      a_opts.insert(a_opts.end(), {-1, 0, 0, umax + 1});
      std::vector<int> b_opts = in.buckets.unmatched_values();
      if (b_opts.empty()) continue;
      b_opts.push_back(b_opts.back() < umax ? umax : 0);
      for (int trial = 0; trial < 3000; ++trial) {
        const std::size_t layers = 2 + rng.next_below(4);
        TauPair tau;
        for (std::size_t t = 0; t < layers; ++t) {
          tau.tau_a.push_back(a_opts[rng.next_below(a_opts.size())]);
        }
        for (std::size_t t = 0; t + 1 < layers; ++t) {
          tau.tau_b.push_back(b_opts[rng.next_below(b_opts.size())]);
        }
        const LayeredGraph got =
            core::build_layered_graph(in.buckets, in.m, in.par, tau, n);
        const LayeredGraph want =
            reference_build(in.ref_buckets, in.m, in.par, tau, n, {});
        expect_core_of(got, want);
        if (::testing::Test::HasFatalFailure()) return;
        coverage.count(tau, got, in.buckets);

        // Coverage, among builds that pass the fast reject.
        bool rejected = false;
        for (int a : tau.tau_a) {
          rejected |= a > umax ||
                      (a > 0 && in.buckets.matched[static_cast<std::size_t>(a)]
                                    .empty());
        }
        for (int b : tau.tau_b) {
          rejected |= in.buckets.unmatched[static_cast<std::size_t>(b)].empty();
        }
        if (rejected) continue;
        const std::size_t k = layers - 1;
        for (std::size_t t = 1; t < k; ++t) {
          if (tau.tau_a[t] == 0) {
            ++interior_zero;
            break;
          }
        }
        if (*std::min_element(tau.tau_a.begin(), tau.tau_a.end()) < 0) {
          ++negative;
        }
        if (tau.tau_a[0] > 0 && tau.tau_a[k] > 0 &&
            want.num_between_edges > 0) {
          ++positive_ends;
        }
        for (std::size_t t = 0; t < k; ++t) {
          if (tau.tau_a[t] > 0 && tau.tau_a[t + 1] > 0 &&
              in.buckets.witnesses(tau.tau_a[t], tau.tau_b[t],
                                   tau.tau_a[t + 1]).empty()) {
            ++empty_triple;
            break;
          }
        }
      }
    }
  }
  EXPECT_GT(non_crossing, 0u);
  EXPECT_GT(above_umax, 0u);
  EXPECT_GT(interior_zero, 0u);
  EXPECT_GT(negative, 0u);
  EXPECT_GT(positive_ends, 0u);
  EXPECT_GT(empty_triple, 0u);
  coverage.expect_all();
}

// Hand-made builds over four layers with tau_a = (0, 2, 2, 0) at unit 1:
// matched edges weigh 2 and unmatched ones 3, so every matched vertex sits
// in both interior layers. R = {0, 2, 4, 6, 8}, L = {1, 3, 5, 7, 9}; 0 and
// 9 are M-free, and 3-2, 1-4, 5-6, 7-8 are matched. Gap 0 (0 -> 1,
// 0 -> 3) reaches 1 and 3, so layer 1 marks 4 and 2, and gap 2 is 6 -> 9.
LayeredGraph build_four_layers(const std::vector<Edge>& gap1) {
  Graph g(10);
  g.add_edge(0, 1, 3);
  g.add_edge(0, 3, 3);
  for (const Edge& e : gap1) g.add_edge(e.u, e.v, e.w);
  g.add_edge(6, 9, 3);
  Matching m(10);
  for (auto [u, v] : {std::pair(3, 2), std::pair(1, 4), std::pair(5, 6),
                      std::pair(7, 8)}) {
    g.add_edge(u, v, 2);
    m.add(u, v, 2);
  }
  Parametrization par(10);
  for (Vertex v = 0; v < 10; ++v) par[v] = v % 2 == 0 ? 1 : 0;
  const CrossingEdges crossing = core::crossing_edges(freeze(g), m, par);
  const TauPair tau{{0, 2, 2, 0}, {3, 3, 3}};
  const LayeredGraph full = reference_build(
      reference_bucket_edges(crossing, 1, 8), m, par, tau, 10, {});
  LayeredGraph built = core::build_layered_graph(
      core::bucket_edges(crossing, 1, 8), m, par, tau, 10);
  expect_core_of(built, full);
  return built;
}

// The path 0 -> 1 = 4 -> 5 = 6 -> 9 needs 4 in layer 1, and the gap-1
// edge 2 -> 1, first in crossing order, reaches 1 and so marks 4 again in
// layer 2: marks keyed by vertex alone would mix the layers up. Then a gap
// 1 whose only witness, 8 -> 5, leaves an unmarked vertex: the forward
// walk dies in layer 1 although every gap has witnesses, and the backward
// walk never runs.
TEST(BuildLayeredGraph, KeepsMarksPerLayer) {
  const LayeredGraph path = build_four_layers({{2, 1, 3}, {4, 5, 3}});
  EXPECT_EQ(path.num_between_edges, 5u);
  EXPECT_EQ(path.lprime.num_vertices(), 6u);
  // Forward: 0 in layer 0; 1, 4, 3, 2 in layer 1; 1, 4, 5, 6 in layer 2;
  // 9 in layer 3. Backward marks nothing new.
  EXPECT_EQ(path.marked, 10u);

  const LayeredGraph none = build_four_layers({{8, 5, 3}});
  EXPECT_EQ(none.num_between_edges, 4u);
  EXPECT_EQ(none.lprime.num_vertices(), 0u);
  EXPECT_EQ(none.marked, 5u);  // 0 in layer 0; 1, 4, 3, 2 in layer 1
}

// Large builds (bipartite n = 2000, m = 20000, unit weights, so each gap
// takes thousands of Y edges) under four threads and one: the build
// ignores its RuntimeConfig, so both give the core of the reference L'.
TEST(LayeredGraphRandom, LargeBuildMatchesReference) {
  Rng rng(5);
  Graph g = gen::random_bipartite(1000, 1000, 20000, rng);
  const Matching m = random_matching(g, rng);
  const Parametrization par = core::random_parametrization(2000, rng);
  core::TauConfig cfg;
  const CrossingEdges crossing = core::crossing_edges(freeze(g), m, par);
  const Weight unit = core::quantum(1, cfg);
  const core::BucketedEdges buckets =
      core::bucket_edges(crossing, unit, core::max_units(cfg));
  const core::BucketedEdges ref_buckets =
      reference_bucket_edges(crossing, unit, core::max_units(cfg));
  std::size_t most_between = 0, cores = 0;
  for (const TauPair& tau : core::pairs_for_values(
           buckets.matched_values(), buckets.unmatched_values(), cfg, rng)) {
    const LayeredGraph want = reference_build(ref_buckets, m, par, tau, 2000,
                                              runtime::RuntimeConfig{4});
    const LayeredGraph got = core::build_layered_graph(
        buckets, m, par, tau, 2000, runtime::RuntimeConfig{4});
    expect_core_of(got, want);
    expect_same_build(core::build_layered_graph(buckets, m, par, tau, 2000,
                                                runtime::RuntimeConfig{1}),
                      got);
    if (::testing::Test::HasFatalFailure()) return;
    most_between = std::max(most_between, want.num_between_edges);
    cores += got.lprime.num_vertices() > 0;
  }
  EXPECT_GT(most_between, 1000u);
  EXPECT_GT(cores, 0u);
}

// The previous crossing_edges, kept verbatim as the exactness reference:
// it branches on every edge's sides and on whether it is matched.
CrossingEdges reference_crossing_edges(const GraphView& g, const Matching& m,
                                       const Parametrization& par) {
  WMATCH_REQUIRE(par.size() == g.num_vertices(), "parametrization size");
  WMATCH_REQUIRE(m.num_vertices() == g.num_vertices(), "matching size");
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
  out.mate_weight.assign(g.num_vertices(), -1);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const Vertex mate = m.mate(v);
    if (mate == kNoVertex) {
      out.mate_weight[v] = 0;
    } else if (par[v] != par[mate] && m.weight_at(v) > 0) {
      out.mate_weight[v] = m.weight_at(v);
    }
  }
  return out;
}

// What the crossing_edges comparisons covered.
struct CrossingCoverage {
  std::size_t matched = 0, unmatched = 0;
  std::size_t zero_weight = 0;   // crossing M(x) of weight 0: reads -1
  std::size_t non_crossing = 0;  // M(x) within one side: reads -1
  std::size_t free = 0;          // M-free x: reads 0
  std::size_t one_side = 0;      // bipartitions with every vertex on a side

  void count(const CrossingEdges& ce, const Matching& m,
             const Parametrization& par) {
    matched += ce.matched.size();
    unmatched += ce.unmatched.size();
    for (Vertex v = 0; v < m.num_vertices(); ++v) {
      if (!m.is_matched(v)) {
        ++free;
      } else if (par[v] == par[m.mate(v)]) {
        ++non_crossing;
      } else if (m.weight_at(v) == 0) {
        ++zero_weight;
      }
    }
    one_side += std::all_of(par.begin(), par.end(),
                            [&](char s) { return s == par[0]; });
  }
};

void expect_same_crossing(const GraphView& g, const Matching& m,
                          const Parametrization& par,
                          CrossingCoverage& coverage) {
  const CrossingEdges got = core::crossing_edges(g, m, par);
  const CrossingEdges want = reference_crossing_edges(g, m, par);
  ASSERT_EQ(got.matched, want.matched);
  ASSERT_EQ(got.unmatched, want.unmatched);
  ASSERT_EQ(got.mate_weight, want.mate_weight);
  coverage.count(got, m, par);
}

// crossing_edges reproduces the reference, edge order, orientation and
// mate_weight included, over random graphs with some parallel edges (so a
// matched pair can cross more than once), random matchings in which some
// matched edges record weight 0 and some match two vertices that share no
// edge, and bipartitions that are random or put every vertex on one side.
TEST(CrossingEdgesTest, MatchesReference) {
  Rng rng(41);
  CrossingCoverage coverage;
  for (int inst = 0; inst < 60; ++inst) {
    const std::size_t n = 2 + rng.next_below(60);
    Graph g = gen::erdos_renyi(
        n, std::min<std::size_t>(n * (n - 1) / 2, 3 * n), rng);
    g = gen::assign_weights(g, gen::WeightDist::kUniform, 100, rng);
    const std::size_t simple_edges = g.num_edges();
    for (std::size_t i = 0; i < simple_edges / 8; ++i) {
      const Edge e = g.edge(rng.next_below(simple_edges));
      g.add_edge(e.v, e.u, 1 + static_cast<Weight>(rng.next_below(100)));
    }
    Matching m = random_matching(g, rng);
    for (Vertex v = 0; v < n; ++v) {
      const Vertex mate = m.mate(v);
      if (mate != kNoVertex && v < mate && rng.next_bool(0.25)) {
        m.remove_at(v);
        m.add(v, mate, 0);
      }
    }
    for (Vertex v = 0; v + 1 < n; v += 2) {
      if (!m.is_matched(v) && !m.is_matched(v + 1) && rng.next_bool(0.3)) {
        m.add(v, v + 1, 1 + static_cast<Weight>(rng.next_below(100)));
      }
    }
    Parametrization par = core::random_parametrization(n, rng);
    if (inst % 5 < 2) std::fill(par.begin(), par.end(), inst % 5);
    expect_same_crossing(freeze(g), m, par, coverage);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // One graph the size of perfbench's unit-bipartite instances.
  Graph g = gen::random_bipartite(2500, 2500, 25000, rng);
  g = gen::assign_weights(g, gen::WeightDist::kUnit, 1, rng);
  const Matching m = random_matching(g, rng);
  expect_same_crossing(freeze(g), m, core::random_parametrization(5000, rng),
                       coverage);
  EXPECT_GT(coverage.matched, 1000u);
  EXPECT_GT(coverage.unmatched, 10000u);
  EXPECT_GT(coverage.zero_weight, 0u);
  EXPECT_GT(coverage.non_crossing, 0u);
  EXPECT_GT(coverage.free, 0u);
  EXPECT_GT(coverage.one_side, 0u);
}

}  // namespace
}  // namespace wmatch
