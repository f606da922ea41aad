#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "exact/brute_force.h"
#include "exact/hopcroft_karp.h"
#include "gen/generators.h"
#include "util/rng.h"

namespace wmatch {
namespace {

std::vector<char> sides_by_cut(std::size_t n_left, std::size_t n) {
  std::vector<char> side(n, 1);
  for (std::size_t v = 0; v < n_left; ++v) side[v] = 0;
  return side;
}

// Length (in edges) of the shortest augmenting path of `m` in g, or
// SIZE_MAX if there is none: a plain alternating BFS from every free left
// vertex over an adjacency list of its own, independent of hopcroft_karp.
std::size_t shortest_augmenting_path(const Graph& g,
                                     const std::vector<char>& side,
                                     const Matching& m) {
  std::vector<std::vector<Vertex>> adj(g.num_vertices());
  for (const Edge& e : g.edges()) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<std::size_t> dist(g.num_vertices(), SIZE_MAX);
  std::queue<Vertex> q;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (side[v] == 0 && !m.is_matched(v)) {
      dist[v] = 0;
      q.push(v);
    }
  }
  while (!q.empty()) {
    const Vertex v = q.front();
    q.pop();
    for (Vertex u : adj[v]) {
      if (m.mate(v) == u || dist[u] != SIZE_MAX) continue;
      dist[u] = dist[v] + 1;
      // BFS discovers vertices by nondecreasing distance, so the first
      // free right vertex ends a shortest augmenting path.
      if (!m.is_matched(u)) return dist[u];
      dist[m.mate(u)] = dist[u] + 1;
      q.push(m.mate(u));
    }
  }
  return SIZE_MAX;
}

TEST(HopcroftKarp, PerfectMatchingOnCompleteBipartite) {
  const std::size_t k = 6;
  Graph g(2 * k);
  for (Vertex u = 0; u < k; ++u) {
    for (Vertex v = 0; v < k; ++v) {
      g.add_edge(u, static_cast<Vertex>(k + v), 1);
    }
  }
  auto r = exact::hopcroft_karp(freeze(g), sides_by_cut(k, 2 * k));
  EXPECT_EQ(r.matching.size(), k);
}

TEST(HopcroftKarp, MatchesBruteForceCardinality) {
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    std::size_t nl = 3 + rng.next_below(5);
    std::size_t nr = 3 + rng.next_below(5);
    std::size_t m = 1 + rng.next_below(std::min<std::size_t>(nl * nr, 24));
    Graph g = gen::random_bipartite(nl, nr, m, rng);
    auto r = exact::hopcroft_karp(freeze(g), sides_by_cut(nl, nl + nr));
    EXPECT_EQ(r.matching.size(), exact::brute_force_max_cardinality(freeze(g)));
    EXPECT_TRUE(is_valid_matching(r.matching, g));
  }
}

TEST(HopcroftKarp, RejectsIntraSideEdge) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  std::vector<char> side{0, 0, 1, 1};
  EXPECT_THROW(exact::hopcroft_karp(freeze(g), side), std::invalid_argument);
}

TEST(HopcroftKarp, PhaseLimitGivesApproximation) {
  // A long augmenting-path chain where one phase is not enough for
  // optimality but still guarantees no short augmenting paths.
  Rng rng(9);
  Graph g = gen::random_bipartite(80, 80, 500, rng);
  auto side = sides_by_cut(80, 160);
  auto full = exact::hopcroft_karp(freeze(g), side);
  for (std::size_t phases = 1; phases <= 4; ++phases) {
    auto limited = exact::hopcroft_karp(freeze(g), side, phases);
    EXPECT_LE(limited.phases, phases);
    // Fact 1.3: after k phases the matching is (1 - 1/(k+1))-approximate.
    double bound = 1.0 - 1.0 / (static_cast<double>(phases) + 1.0);
    EXPECT_GE(static_cast<double>(limited.matching.size()) + 1e-9,
              bound * static_cast<double>(full.matching.size()))
        << phases;
  }
}

TEST(HopcroftKarp, InitialMatchingIsRespectedAndExtended) {
  Graph g(4);
  g.add_edge(0, 2, 5);
  g.add_edge(1, 3, 5);
  std::vector<char> side{0, 0, 1, 1};
  Matching init(4);
  init.add(0, 2, 5);
  auto r = exact::hopcroft_karp(freeze(g), side, 0, &init);
  EXPECT_EQ(r.matching.size(), 2u);
  EXPECT_TRUE(r.matching.contains(0, 2));
}

TEST(HopcroftKarp, InitialMatchingNotInGraphRejected) {
  Graph g(4);
  g.add_edge(0, 2, 5);
  std::vector<char> side{0, 0, 1, 1};
  Matching init(4);
  init.add(1, 3, 5);
  EXPECT_THROW(exact::hopcroft_karp(freeze(g), side, 0, &init),
               std::invalid_argument);
}

TEST(HopcroftKarp, EveryPhaseLengthensTheShortestAugmentingPath) {
  // Fact 1.3's premise: each phase augments along a maximal set of
  // disjoint level-graph paths, so after k phases that all ran, no
  // augmenting path shorter than 2k+1 is left.
  Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t nl = 20 + rng.next_below(41);
    const std::size_t nr = 20 + rng.next_below(41);
    const std::size_t m = (nl + nr) * (1 + rng.next_below(3));
    const Graph g = gen::random_bipartite(nl, nr, m, rng);
    const auto side = sides_by_cut(nl, nl + nr);
    for (std::size_t k = 1; k <= 4; ++k) {
      const auto r = exact::hopcroft_karp(freeze(g), side, k);
      if (r.phases < k) break;  // optimal before k phases
      EXPECT_GE(shortest_augmenting_path(g, side, r.matching), 2 * k + 1)
          << "trial " << trial << " after " << k << " phases";
    }
  }
}

TEST(HopcroftKarp, EdgeOrientationDoesNotChangeTheResult) {
  // Edges are unordered pairs: storing every edge right-first instead of
  // left-first (same edge order, so the same CSR slot order) must leave
  // the matching and the phase count unchanged.
  Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t nl = 20 + rng.next_below(41);
    const std::size_t nr = 20 + rng.next_below(41);
    const std::size_t m = (nl + nr) * (1 + rng.next_below(3));
    const Graph g = gen::random_bipartite(nl, nr, m, rng);
    Graph reversed(g.num_vertices());
    for (const Edge& e : g.edges()) reversed.add_edge(e.v, e.u, e.w);
    const auto side = sides_by_cut(nl, nl + nr);
    const auto a = exact::hopcroft_karp(freeze(g), side);
    const auto b = exact::hopcroft_karp(freeze(reversed), side);
    EXPECT_EQ(a.phases, b.phases) << "trial " << trial;
    EXPECT_EQ(a.matching, b.matching) << "trial " << trial;
  }
}

TEST(HopcroftKarp, PhasesGrowLogarithmically) {
  // Hopcroft-Karp needs O(sqrt(V)) phases; on random graphs far fewer.
  Rng rng(11);
  Graph g = gen::random_bipartite(200, 200, 1200, rng);
  auto r = exact::hopcroft_karp(freeze(g), sides_by_cut(200, 400));
  EXPECT_LE(r.phases, 20u);
  EXPECT_GT(r.matching.size(), 150u);
}

TEST(Bipartition, TwoColorsAPathAndRejectsOddCycle) {
  Graph p(4);
  p.add_edge(0, 1, 1);
  p.add_edge(1, 2, 1);
  p.add_edge(2, 3, 1);
  auto side = exact::bipartition_of(freeze(p));
  ASSERT_EQ(side.size(), 4u);
  EXPECT_NE(side[0], side[1]);
  EXPECT_NE(side[1], side[2]);

  Graph tri(3);
  tri.add_edge(0, 1, 1);
  tri.add_edge(1, 2, 1);
  tri.add_edge(0, 2, 1);
  EXPECT_TRUE(exact::bipartition_of(freeze(tri)).empty());
}

}  // namespace
}  // namespace wmatch
