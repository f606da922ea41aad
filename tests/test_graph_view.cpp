// GraphView construction edge cases and CSR invariants.
//
// The CSR fill order is a documented contract (graph_view.h): per-vertex
// incident edge ids ascend and the slot-parallel arrays agree with the
// edge list. Traversal-order-dependent results (Hopcroft-Karp's DFS among
// them) rely on it, so these tests pin it down.
#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/graph_view.h"
#include "util/rng.h"

namespace wmatch {
namespace {

TEST(GraphView, DefaultViewIsEmpty) {
  GraphView v;
  EXPECT_EQ(v.num_vertices(), 0u);
  EXPECT_EQ(v.num_edges(), 0u);
  ASSERT_EQ(v.offsets().size(), 1u);
  EXPECT_EQ(v.offsets()[0], 0u);
  EXPECT_EQ(v.total_weight(), 0);
  EXPECT_EQ(v.max_weight(), 0);
}

TEST(GraphView, IsolatedVerticesHaveEmptyRanges) {
  Graph g(5);
  g.add_edge(1, 3, 7);
  GraphView v = freeze(g);
  ASSERT_EQ(v.num_vertices(), 5u);
  for (Vertex u : {0u, 2u, 4u}) {
    EXPECT_EQ(v.degree(u), 0u) << u;
    EXPECT_TRUE(v.incident(u).empty()) << u;
    EXPECT_TRUE(v.neighbors(u).empty()) << u;
    EXPECT_TRUE(v.incident_weights(u).empty()) << u;
  }
  ASSERT_EQ(v.degree(1), 1u);
  EXPECT_EQ(v.incident(1)[0], 0u);
  EXPECT_EQ(v.neighbors(1)[0], 3u);
  EXPECT_EQ(v.incident_weights(1)[0], 7);
  EXPECT_EQ(v.total_weight(), 7);
  EXPECT_EQ(v.max_weight(), 7);
}

TEST(GraphView, SingleEdgeSlotArrays) {
  Graph g(2);
  g.add_edge(0, 1, 5);
  GraphView v = freeze(g);
  ASSERT_EQ(v.offsets().size(), 3u);
  EXPECT_EQ(v.offsets()[0], 0u);
  EXPECT_EQ(v.offsets()[1], 1u);
  EXPECT_EQ(v.offsets()[2], 2u);
  // Slot 0 is u's side of edge 0, slot 1 is v's side: each endpoint sees
  // the other as its neighbor, the same edge id, the same weight.
  ASSERT_EQ(v.neighbor_slots().size(), 2u);
  EXPECT_EQ(v.neighbor_slots()[0], 1u);
  EXPECT_EQ(v.neighbor_slots()[1], 0u);
  EXPECT_EQ(v.edge_id_slots()[0], 0u);
  EXPECT_EQ(v.edge_id_slots()[1], 0u);
  EXPECT_EQ(v.weight_slots()[0], 5);
  EXPECT_EQ(v.weight_slots()[1], 5);
}

TEST(GraphView, MaxDegreeStar) {
  // A 64-leaf star: the center's slots follow insertion order.
  const std::size_t leaves = 64;
  Graph g(leaves + 1);
  for (std::size_t i = 0; i < leaves; ++i) {
    g.add_edge(0, static_cast<Vertex>(i + 1), static_cast<Weight>(i + 1));
  }
  GraphView v = freeze(g);
  ASSERT_EQ(v.degree(0), leaves);
  auto ids = v.incident(0);
  auto nbrs = v.neighbors(0);
  auto wts = v.incident_weights(0);
  for (std::size_t s = 0; s < leaves; ++s) {
    EXPECT_EQ(ids[s], s);                                // insertion order
    EXPECT_EQ(nbrs[s], static_cast<Vertex>(s + 1));
    EXPECT_EQ(wts[s], static_cast<Weight>(s + 1));
    EXPECT_EQ(v.degree(static_cast<Vertex>(s + 1)), 1u);
    EXPECT_EQ(v.neighbors(static_cast<Vertex>(s + 1))[0], 0u);
  }
  EXPECT_EQ(v.total_weight(),
            static_cast<Weight>(leaves * (leaves + 1) / 2));
  EXPECT_EQ(v.max_weight(), static_cast<Weight>(leaves));
}

// Slot-parallel consistency and fill-order contract on a random instance:
// offsets monotone covering exactly 2m slots, every slot consistent with
// its edge record, per-vertex edge ids strictly ascending.
TEST(GraphView, CsrInvariantsOnRandomGraph) {
  Rng rng(17);
  Graph g = gen::random_bipartite(60, 60, 500, rng);
  GraphView v = freeze(g);
  const std::size_t n = v.num_vertices();
  const std::size_t m = v.num_edges();
  auto off = v.offsets();
  ASSERT_EQ(off.size(), n + 1);
  EXPECT_EQ(off[0], 0u);
  EXPECT_EQ(off[n], 2 * m);
  std::size_t degree_sum = 0;
  for (Vertex u = 0; u < n; ++u) {
    ASSERT_LE(off[u], off[u + 1]);
    degree_sum += v.degree(u);
    auto ids = v.incident(u);
    auto nbrs = v.neighbors(u);
    auto wts = v.incident_weights(u);
    for (std::size_t s = 0; s < ids.size(); ++s) {
      const Edge& e = v.edge(ids[s]);
      ASSERT_TRUE(e.has_endpoint(u));
      EXPECT_EQ(nbrs[s], e.other(u));
      EXPECT_EQ(wts[s], e.w);
      if (s > 0) {
        EXPECT_LT(ids[s - 1], ids[s]);  // ascending = old build order
      }
    }
  }
  EXPECT_EQ(degree_sum, 2 * m);
  Weight total = 0;
  Weight max_w = 0;
  for (const Edge& e : v.edges()) {
    total += e.w;
    if (e.w > max_w) max_w = e.w;
  }
  EXPECT_EQ(v.total_weight(), total);
  EXPECT_EQ(v.max_weight(), max_w);
}

TEST(GraphView, FreezeByValueLeavesLvalueBuilderReusable) {
  Graph g(3);
  g.add_edge(0, 1, 2);
  GraphView before = freeze(g);  // copies: g stays usable
  g.add_edge(1, 2, 3);
  GraphView after = freeze(g);
  EXPECT_EQ(before.num_edges(), 1u);
  EXPECT_EQ(after.num_edges(), 2u);
  EXPECT_EQ(before.degree(1), 1u);
  EXPECT_EQ(after.degree(1), 2u);
}

}  // namespace
}  // namespace wmatch
