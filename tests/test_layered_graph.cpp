#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/layered_graph.h"
#include "gen/generators.h"
#include "gen/weights.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
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

// The previous build_layered_graph, kept verbatim as the exactness
// reference: layer presence from a hash set of the kept matched edges'
// endpoints, and (layer, vertex) interning through a hash map.
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

// build_layered_graph must reproduce the reference on every pair that
// pairs_for_values yields, over random simple graphs, matchings,
// bipartitions and class weights.
TEST(LayeredGraphRandom, MatchesReferenceBuild) {
  Rng rng(77);
  std::size_t builds = 0, nonempty = 0;
  for (std::size_t n : {12u, 80u}) {
    for (int inst = 0; inst < 12; ++inst) {
      const std::size_t max_m = n * (n - 1) / 2;
      Graph g = gen::erdos_renyi(n, std::min<std::size_t>(max_m, 4 * n), rng);
      g = gen::assign_weights(g, gen::WeightDist::kUniform, 100, rng);
      const Matching m = random_matching(g, rng);
      const Parametrization par = core::random_parametrization(n, rng);
      core::TauConfig cfg;
      cfg.max_layers = inst % 2 == 0 ? 4 : 6;
      cfg.granularity = inst % 3 == 0 ? 0.25 : 0.125;
      const Weight w_class = 1 + static_cast<Weight>(rng.next_below(100));
      const core::BucketedEdges buckets = core::bucket_edges(
          core::crossing_edges(freeze(g), m, par), core::quantum(w_class, cfg),
          core::max_units(cfg));
      for (const TauPair& tau :
           core::pairs_for_values(buckets.matched_values(),
                                  buckets.unmatched_values(), cfg, rng)) {
        const LayeredGraph got =
            core::build_layered_graph(buckets, m, par, tau, n);
        const LayeredGraph want = reference_build(buckets, m, par, tau, n, {});
        expect_same_build(got, want);
        if (::testing::Test::HasFatalFailure()) return;
        ++builds;
        if (want.num_between_edges > 0) ++nonempty;
      }
    }
  }
  EXPECT_GT(builds, 1000u);
  EXPECT_GT(nonempty, 100u);
}

// A build large enough (>= 4096 candidate Y edges) to filter its gaps on
// the pool: four threads, one thread and the reference must agree.
TEST(LayeredGraphRandom, PoolPathMatchesReference) {
  Rng rng(5);
  Graph g = gen::random_bipartite(1000, 1000, 20000, rng);
  const Matching m = random_matching(g, rng);
  const Parametrization par = core::random_parametrization(2000, rng);
  core::TauConfig cfg;
  const core::BucketedEdges buckets = core::bucket_edges(
      core::crossing_edges(freeze(g), m, par), core::quantum(1, cfg),
      core::max_units(cfg));
  std::size_t pooled = 0;
  for (const TauPair& tau : core::pairs_for_values(
           buckets.matched_values(), buckets.unmatched_values(), cfg, rng)) {
    std::size_t gap_work = 0;
    for (int b : tau.tau_b) {
      gap_work += buckets.unmatched[static_cast<std::size_t>(b)].size();
    }
    if (gap_work >= 4096) ++pooled;
    const LayeredGraph want =
        reference_build(buckets, m, par, tau, 2000, runtime::RuntimeConfig{4});
    expect_same_build(core::build_layered_graph(buckets, m, par, tau, 2000,
                                                runtime::RuntimeConfig{4}),
                      want);
    expect_same_build(core::build_layered_graph(buckets, m, par, tau, 2000,
                                                runtime::RuntimeConfig{1}),
                      want);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(pooled, 0u);
}

}  // namespace
}  // namespace wmatch
