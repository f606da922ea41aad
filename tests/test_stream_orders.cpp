#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/rand_arr_matching.h"
#include "gen/generators.h"
#include "gen/weights.h"
#include "util/rng.h"

namespace wmatch {
namespace {

Graph test_graph(std::uint64_t seed) {
  Rng rng(seed);
  return gen::assign_weights(gen::erdos_renyi(60, 400, rng),
                             gen::WeightDist::kUniform, 1000, rng);
}

bool same_edge_multiset(const std::vector<Edge>& a,
                        const std::vector<Edge>& b) {
  std::multiset<std::uint64_t> ka, kb;
  for (const Edge& e : a) ka.insert(e.key());
  for (const Edge& e : b) kb.insert(e.key());
  return ka == kb;
}

TEST(StreamOrders, DecreasingIsSortedAndComplete) {
  Graph g = test_graph(1);
  auto s = gen::decreasing_weight_stream(freeze(g));
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end(), [](const Edge& a,
                                                    const Edge& b) {
    return a.w > b.w;
  }));
  EXPECT_TRUE(same_edge_multiset(
      s, {g.edges().begin(), g.edges().end()}));
}

TEST(StreamOrders, ClusteredGroupsByMinEndpoint) {
  Graph g = test_graph(2);
  auto s = gen::clustered_stream(freeze(g));
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end(), [](const Edge& a,
                                                    const Edge& b) {
    return std::min(a.u, a.v) < std::min(b.u, b.v);
  }));
  EXPECT_EQ(s.size(), g.num_edges());
}

TEST(StreamOrders, RandArrMatchingDegradesGracefullyOffRandomOrder) {
  // The algorithm's guarantee needs random arrivals; on other orders it
  // must still emit a valid matching (robustness, not a ratio claim).
  Graph g = test_graph(7);
  Rng rng(7);
  for (auto order : {gen::increasing_weight_stream(freeze(g)),
                     gen::decreasing_weight_stream(freeze(g)),
                     gen::clustered_stream(freeze(g))}) {
    Rng local = rng.split();
    auto result =
        core::rand_arr_matching(order, g.num_vertices(), {}, local);
    EXPECT_TRUE(is_valid_matching(result.matching, g));
    EXPECT_GT(result.matching.weight(), 0);
  }
}

}  // namespace
}  // namespace wmatch
