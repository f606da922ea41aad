#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "exact/blossom.h"
#include "gen/generators.h"
#include "gen/weights.h"
#include "graph/augmentation.h"
#include "util/rng.h"

namespace wmatch {
namespace {

Matching path_matching(std::size_t n, std::initializer_list<Edge> edges) {
  Matching m(n);
  for (const Edge& e : edges) m.add(e);
  return m;
}

TEST(Augmentation, VerticesOfPath) {
  Augmentation aug;
  aug.edges = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}};
  auto v = aug.vertices();
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 0u);
  EXPECT_EQ(v[3], 3u);
}

TEST(Augmentation, VerticesHandleReversedFirstEdge) {
  Augmentation aug;
  aug.edges = {{1, 0, 1}, {1, 2, 1}};  // first edge given reversed
  auto v = aug.vertices();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 0u);
  EXPECT_EQ(v[1], 1u);
  EXPECT_EQ(v[2], 2u);
}

TEST(Augmentation, VerticesOfCycle) {
  Augmentation aug;
  aug.is_cycle = true;
  aug.edges = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}};
  auto v = aug.vertices();
  EXPECT_EQ(v.size(), 4u);
}

TEST(Augmentation, ValidAlternatingPath) {
  Matching m = path_matching(4, {Edge{1, 2, 5}});
  Augmentation aug;
  aug.edges = {{0, 1, 3}, {1, 2, 5}, {2, 3, 4}};
  EXPECT_TRUE(aug.is_valid_alternating(m));
}

TEST(Augmentation, InvalidWhenNotAlternating) {
  Matching m(4);
  Augmentation aug;  // two consecutive unmatched edges
  aug.edges = {{0, 1, 3}, {1, 2, 5}};
  EXPECT_FALSE(aug.is_valid_alternating(m));
}

TEST(Augmentation, InvalidWhenVertexRepeats) {
  Matching m = path_matching(4, {Edge{1, 2, 5}});
  Augmentation aug;
  aug.edges = {{0, 1, 1}, {1, 2, 5}, {2, 0, 1}};  // revisits 0 but not cycle
  EXPECT_FALSE(aug.is_valid_alternating(m));
}

TEST(Augmentation, ValidAlternatingCycle) {
  Matching m = path_matching(4, {Edge{0, 1, 3}, Edge{2, 3, 3}});
  Augmentation aug;
  aug.is_cycle = true;
  aug.edges = {{0, 1, 3}, {1, 2, 4}, {2, 3, 3}, {3, 0, 4}};
  EXPECT_TRUE(aug.is_valid_alternating(m));
}

TEST(Augmentation, OddCycleInvalid) {
  Matching m(3);
  Augmentation aug;
  aug.is_cycle = true;
  aug.edges = {{0, 1, 1}, {1, 2, 1}, {2, 0, 1}};
  EXPECT_FALSE(aug.is_valid_alternating(m));
}

TEST(Augmentation, MatchingNeighborhoodIncludesOffPathEdges) {
  // Path o = (1,2); matched edges (0,1) and (2,3) are off-path neighbors.
  Matching m = path_matching(4, {Edge{0, 1, 3}, Edge{2, 3, 4}});
  Augmentation aug;
  aug.edges = {{1, 2, 10}};
  auto nbhd = aug.matching_neighborhood(m);
  EXPECT_EQ(nbhd.size(), 2u);
  EXPECT_EQ(aug.gain(m), 10 - 3 - 4);
}

TEST(Augmentation, ApplyRealizesGain) {
  Matching m = path_matching(4, {Edge{0, 1, 3}, Edge{2, 3, 4}});
  Augmentation aug;
  aug.edges = {{1, 2, 10}};
  Weight gain = aug.gain(m);
  Weight realized = aug.apply(m);
  EXPECT_EQ(gain, realized);
  EXPECT_EQ(m.weight(), 10);
  EXPECT_TRUE(m.contains(1, 2));
  EXPECT_FALSE(m.is_matched(0));
}

TEST(Augmentation, ApplyCycleSwapsMatchedEdges) {
  // 4-cycle (3,4,3,4): only the cycle augmentation improves.
  Matching m = path_matching(4, {Edge{0, 1, 3}, Edge{2, 3, 3}});
  Augmentation aug;
  aug.is_cycle = true;
  aug.edges = {{0, 1, 3}, {1, 2, 4}, {2, 3, 3}, {3, 0, 4}};
  EXPECT_EQ(aug.gain(m), 2);
  aug.apply(m);
  EXPECT_EQ(m.weight(), 8);
  EXPECT_TRUE(m.contains(1, 2));
  EXPECT_TRUE(m.contains(3, 0));
}

TEST(Augmentation, TouchedVerticesIncludeMates) {
  Matching m = path_matching(6, {Edge{0, 1, 3}, Edge{4, 5, 2}});
  Augmentation aug;
  aug.edges = {{1, 4, 10}};
  auto touched = aug.touched_vertices(m);
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(touched, (std::vector<Vertex>{0, 1, 4, 5}));
}

TEST(SymmetricDifference, PathComponent) {
  Matching m(4), n(4);
  m.add(1, 2, 5);
  n.add(0, 1, 3);
  n.add(2, 3, 4);
  auto comps = symmetric_difference_components(m, n);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_FALSE(comps[0].is_cycle);
  EXPECT_EQ(comps[0].edges.size(), 3u);
}

TEST(SymmetricDifference, CycleComponent) {
  Matching m(4), n(4);
  m.add(0, 1, 3);
  m.add(2, 3, 3);
  n.add(1, 2, 4);
  n.add(3, 0, 4);
  auto comps = symmetric_difference_components(m, n);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_TRUE(comps[0].is_cycle);
  EXPECT_EQ(comps[0].edges.size(), 4u);
}

TEST(SymmetricDifference, SharedEdgesExcluded) {
  Matching m(4), n(4);
  m.add(0, 1, 3);
  n.add(0, 1, 3);
  auto comps = symmetric_difference_components(m, n);
  EXPECT_TRUE(comps.empty());
}

TEST(SymmetricDifference, MismatchedSizesThrow) {
  Matching m(3), n(4);
  EXPECT_THROW(symmetric_difference_components(m, n), std::invalid_argument);
}

class SymDiffPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymDiffPropertyTest, ComponentsAreValidAlternatingAndCoverDiff) {
  Rng rng(GetParam());
  Graph g = gen::erdos_renyi(24, 60, rng);
  g = gen::assign_weights(g, gen::WeightDist::kUniform, 50, rng);
  // Two different matchings: greedy by stream vs exact.
  Matching greedy(24);
  for (const Edge& e : g.edges()) {
    if (!greedy.is_matched(e.u) && !greedy.is_matched(e.v)) greedy.add(e);
  }
  Matching opt = exact::blossom_max_weight(freeze(g));
  auto comps = symmetric_difference_components(greedy, opt);
  std::size_t total_edges = 0;
  for (const auto& comp : comps) {
    total_edges += comp.edges.size();
    // Edges alternate between the two matchings.
    for (std::size_t i = 0; i + 1 < comp.edges.size(); ++i) {
      bool a = greedy.contains(comp.edges[i]);
      bool b = greedy.contains(comp.edges[i + 1]);
      EXPECT_NE(a, b);
    }
  }
  // Total edge count equals |M △ N|.
  std::size_t expected = 0;
  for (const Edge& e : greedy.edges()) {
    if (!opt.contains(e)) ++expected;
  }
  for (const Edge& e : opt.edges()) {
    if (!greedy.contains(e)) ++expected;
  }
  EXPECT_EQ(total_edges, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymDiffPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SelectDisjoint, PrefersEarlierAndSkipsConflicts) {
  Matching m(6);
  m.add(1, 2, 5);
  Augmentation a1;
  a1.edges = {{0, 1, 1}, {1, 2, 5}, {2, 3, 1}};
  Augmentation a2;  // conflicts with a1 (shares 1,2)
  a2.edges = {{1, 2, 5}};
  Augmentation a3;  // disjoint from a1
  a3.edges = {{4, 5, 9}};
  auto picked = select_disjoint({a1, a2, a3}, m);
  EXPECT_EQ(picked, (std::vector<std::size_t>{0, 2}));
}

// ---- the previous hash-based kernels, kept as exactness references ------
//
// Verbatim copies of the Augmentation members and of select_disjoint as
// they stood before they dropped their hash containers, rewritten only as
// free functions over `aug`.

bool reference_is_valid_alternating(const Augmentation& aug,
                                    const Matching& m) {
  const std::vector<Edge>& edges = aug.edges;
  const bool is_cycle = aug.is_cycle;
  if (edges.empty()) return false;
  // Connectivity / simplicity.
  std::vector<Vertex> verts = aug.vertices();
  std::unordered_set<Vertex> seen(verts.begin(), verts.end());
  if (seen.size() != verts.size()) return false;  // repeated vertex
  std::size_t expected = is_cycle ? edges.size() : edges.size() + 1;
  if (verts.size() != expected) return false;
  if (is_cycle && edges.size() < 4) return false;  // alternating => even >= 4
  if (is_cycle && edges.size() % 2 != 0) return false;
  // Consecutive edges must share exactly the traversal vertex.
  Vertex cur = verts[0];
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (!edges[i].has_endpoint(cur)) return false;
    cur = edges[i].other(cur);
  }
  if (is_cycle && cur != verts[0]) return false;
  // Alternation.
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    if (m.contains(edges[i]) == m.contains(edges[i + 1])) return false;
  }
  if (is_cycle && m.contains(edges.back()) == m.contains(edges.front())) {
    return false;
  }
  return true;
}

std::vector<Edge> reference_matching_neighborhood(const Augmentation& aug,
                                                  const Matching& m) {
  std::vector<Edge> out;
  std::unordered_set<std::uint64_t> seen;
  for (Vertex v : aug.vertices()) {
    if (!m.is_matched(v)) continue;
    Edge e{v, m.mate(v), m.weight_at(v)};
    if (seen.insert(e.key()).second) out.push_back(e);
  }
  return out;
}

Weight reference_gain(const Augmentation& aug, const Matching& m) {
  Weight added = 0;
  for (const Edge& e : aug.edges) {
    if (!m.contains(e)) added += e.w;
  }
  Weight removed = 0;
  for (const Edge& e : reference_matching_neighborhood(aug, m)) removed += e.w;
  return added - removed;
}

std::vector<Vertex> reference_touched_vertices(const Augmentation& aug,
                                               const Matching& m) {
  std::unordered_set<Vertex> set;
  for (Vertex v : aug.vertices()) {
    set.insert(v);
    if (m.is_matched(v)) set.insert(m.mate(v));
  }
  return {set.begin(), set.end()};
}

std::vector<std::size_t> reference_select_disjoint(
    const std::vector<Augmentation>& augs, const Matching& m) {
  std::unordered_set<Vertex> used;
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < augs.size(); ++i) {
    std::vector<Vertex> touched = reference_touched_vertices(augs[i], m);
    bool conflict =
        std::any_of(touched.begin(), touched.end(),
                    [&](Vertex v) { return used.count(v) > 0; });
    if (conflict) continue;
    used.insert(touched.begin(), touched.end());
    chosen.push_back(i);
  }
  return chosen;
}

// A random matching on n vertices: disjoint random pairs, some of weight 0.
Matching random_pairs(std::size_t n, Rng& rng) {
  Matching m(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vertex u = static_cast<Vertex>(rng.next_below(n));
    const Vertex v = static_cast<Vertex>(rng.next_below(n));
    if (u == v || m.is_matched(u) || m.is_matched(v)) continue;
    m.add(u, v, static_cast<Weight>(rng.next_below(50)));
  }
  return m;
}

// An alternating cycle through up to `pairs` matched edges of m, joined in
// random order by unmatched edges; empty when m has fewer than 2 edges.
Augmentation planted_cycle(const Matching& m, std::size_t pairs, Rng& rng) {
  std::vector<Edge> matched = m.edges();
  rng.shuffle(matched);
  matched.resize(std::min(matched.size(), pairs));
  Augmentation aug;
  aug.is_cycle = true;
  if (matched.size() < 2) return aug;
  for (std::size_t i = 0; i < matched.size(); ++i) {
    const Edge& e = matched[i];
    const Edge& next = matched[(i + 1) % matched.size()];
    aug.edges.push_back(e);
    const Weight w = 1 + static_cast<Weight>(rng.next_below(50));
    aug.edges.push_back({e.v, next.u, w});
  }
  return aug;
}

// A random edge sequence over m's vertices. Most are walks that alternate
// (a matched step wherever the current vertex has a mate and the last step
// was unmatched) and may revisit vertices; a walk that returns to its start
// may be flagged a cycle. Some steps are random, so some sequences do not
// alternate, and a few are not walks at all. Some are planted alternating
// cycles.
Augmentation random_augmentation(const Matching& m, Rng& rng) {
  const std::size_t n = m.num_vertices();
  if (rng.next_bool(0.1)) return planted_cycle(m, 2 + rng.next_below(3), rng);
  const bool alternate = rng.next_bool(0.7);
  const bool broken = rng.next_bool(0.05);
  Augmentation aug;
  Vertex cur = static_cast<Vertex>(rng.next_below(n));
  const Vertex start = cur;
  bool last_matched = rng.next_bool(0.5);
  const std::size_t len = 1 + rng.next_below(10);
  for (std::size_t i = 0; i < len; ++i) {
    Vertex next;
    Weight w;
    if (alternate && !last_matched && m.is_matched(cur)) {
      next = m.mate(cur);
      w = m.weight_at(cur);
    } else {
      next = static_cast<Vertex>(rng.next_below(n - 1));
      next += next >= cur;
      w = m.contains(cur, next) ? m.weight_at(cur)
                                : 1 + static_cast<Weight>(rng.next_below(50));
    }
    last_matched = m.contains(cur, next);
    aug.edges.push_back(
        rng.next_bool(0.5) ? Edge{cur, next, w} : Edge{next, cur, w});
    cur = broken && rng.next_bool(0.3)
              ? static_cast<Vertex>(rng.next_below(n))
              : next;
  }
  aug.is_cycle = cur == start ? rng.next_bool(0.8) : rng.next_bool(0.05);
  return aug;
}

// The members and select_disjoint against the references on random
// matchings and edge sequences: is_valid_alternating, gain and
// matching_neighborhood (in its first-occurrence order) exactly,
// touched_vertices as a set and in ascending order without duplicates,
// and select_disjoint's chosen indices over random families.
TEST(AugmentationReference, MembersMatchReference) {
  Rng rng(12);
  std::size_t valid_paths = 0, valid_cycles = 0, invalid = 0;
  std::size_t deduplicated = 0, chosen = 0, skipped = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 2 + rng.next_below(14);
    const Matching m = random_pairs(n, rng);
    std::vector<Augmentation> family;
    const std::size_t count = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < count; ++i) {
      const Augmentation aug = random_augmentation(m, rng);
      const bool valid = reference_is_valid_alternating(aug, m);
      ASSERT_EQ(aug.is_valid_alternating(m), valid);
      const std::vector<Edge> nbhd = reference_matching_neighborhood(aug, m);
      ASSERT_EQ(aug.matching_neighborhood(m), nbhd);
      ASSERT_EQ(aug.gain(m), reference_gain(aug, m));
      std::vector<Vertex> want = reference_touched_vertices(aug, m);
      std::sort(want.begin(), want.end());
      ASSERT_EQ(aug.touched_vertices(m), want);  // ascending, no duplicate
      if (!valid) {
        ++invalid;
      } else {
        aug.is_cycle ? ++valid_cycles : ++valid_paths;
      }
      const std::vector<Vertex> verts = aug.vertices();
      deduplicated += static_cast<std::size_t>(std::count_if(
                          verts.begin(), verts.end(),
                          [&](Vertex v) { return m.is_matched(v); })) >
                      nbhd.size();
      family.push_back(aug);
    }
    const std::vector<std::size_t> picked = select_disjoint(family, m);
    ASSERT_EQ(picked, reference_select_disjoint(family, m));
    chosen += picked.size();
    skipped += family.size() - picked.size();
  }
  EXPECT_GT(valid_paths, 100u);
  EXPECT_GT(valid_cycles, 10u);
  EXPECT_GT(invalid, 100u);
  EXPECT_GT(deduplicated, 100u);
  EXPECT_GT(chosen, 100u);
  EXPECT_GT(skipped, 100u);
}

}  // namespace
}  // namespace wmatch
