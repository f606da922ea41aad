#include <gtest/gtest.h>

#include <unordered_map>

#include "core/decompose.h"
#include "util/require.h"
#include "util/rng.h"

namespace wmatch {
namespace {

using core::decompose_walk;

TEST(Decompose, SimplePathStaysWhole) {
  std::vector<Edge> walk{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}};
  auto parts = decompose_walk(walk);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_FALSE(parts[0].is_cycle);
  EXPECT_EQ(parts[0].edges.size(), 3u);
}

TEST(Decompose, EmptyWalk) {
  EXPECT_TRUE(decompose_walk({}).empty());
}

TEST(Decompose, SingleEdge) {
  auto parts = decompose_walk({{4, 7, 9}});
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].edges.size(), 1u);
}

TEST(Decompose, PureCycleWalk) {
  std::vector<Edge> walk{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}};
  auto parts = decompose_walk(walk);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_TRUE(parts[0].is_cycle);
  EXPECT_EQ(parts[0].edges.size(), 4u);
}

TEST(Decompose, PaperNonSimpleWalkSplits) {
  // Section 4.3.4's problem walk: a-b-c-d-b-a in the 6-vertex example
  // (vertices a=0,b=1,c=2,d=3). Walk edges: (0,1),(1,2),(2,3),(3,1),(1,0).
  // Decomposes into cycle b-c-d-b and path a-b + b-a -> actually the two
  // (0,1) traversals form a 2-edge degenerate cycle; the stack method
  // yields cycle {1,2,3} and cycle {0,1 twice}.
  std::vector<Edge> walk{{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {3, 1, 2}, {1, 0, 1}};
  auto parts = decompose_walk(walk);
  std::size_t total = 0;
  for (const auto& p : parts) total += p.edges.size();
  EXPECT_EQ(total, walk.size());  // conservation
  bool has_cycle3 = false;
  for (const auto& p : parts) {
    if (p.is_cycle && p.edges.size() == 3u) has_cycle3 = true;
  }
  EXPECT_TRUE(has_cycle3);
}

TEST(Decompose, RepeatedCycleBlowupSplitsIntoCopies) {
  // The repeated-cycle trick of Section 1.1.2: the 4-cycle traversed
  // 3 times decomposes into 3 copies of the simple cycle.
  std::vector<Edge> cyc{{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {3, 0, 2}};
  std::vector<Edge> walk;
  for (int rep = 0; rep < 3; ++rep) {
    walk.insert(walk.end(), cyc.begin(), cyc.end());
  }
  auto parts = decompose_walk(walk);
  ASSERT_EQ(parts.size(), 3u);
  for (const auto& p : parts) {
    EXPECT_TRUE(p.is_cycle);
    EXPECT_EQ(p.edges.size(), 4u);
  }
}

TEST(Decompose, FigureEightSplitsAtSharedVertex) {
  // Two 4-cycles sharing vertex 0, walked consecutively.
  std::vector<Edge> walk{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1},
                         {0, 4, 1}, {4, 5, 1}, {5, 6, 1}, {6, 0, 1}};
  auto parts = decompose_walk(walk);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_TRUE(parts[0].is_cycle);
  EXPECT_TRUE(parts[1].is_cycle);
}

TEST(Decompose, PathWithDetourCycle) {
  // 0-1-2-1 ... walk revisits 1 then continues to 3.
  std::vector<Edge> walk{{0, 1, 1}, {1, 2, 1}, {2, 1, 1}, {1, 3, 1}};
  auto parts = decompose_walk(walk);
  std::size_t path_edges = 0;
  for (const auto& p : parts) {
    if (!p.is_cycle) path_edges += p.edges.size();
  }
  EXPECT_EQ(path_edges, 2u);  // 0-1 and 1-3 remain as the simple path
}

TEST(Decompose, RejectsNonConsecutiveWalk) {
  std::vector<Edge> walk{{0, 1, 1}, {2, 3, 1}};
  EXPECT_THROW(decompose_walk(walk), std::invalid_argument);
}

TEST(Decompose, ConservesEdgesOnRandomClosedWalks) {
  // Random walks on a complete-ish graph: decomposition must conserve the
  // number of edges and produce components that are simple.
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Edge> walk;
    Vertex cur = 0;
    for (int step = 0; step < 12; ++step) {
      Vertex nxt = static_cast<Vertex>(rng.next_below(6));
      if (nxt == cur) nxt = (nxt + 1) % 6;
      walk.push_back({cur, nxt, 1});
      cur = nxt;
    }
    auto parts = decompose_walk(walk);
    std::size_t total = 0;
    for (const auto& p : parts) {
      total += p.edges.size();
      // Simplicity: within a component no vertex repeats (checked through
      // vertices() cardinality).
      auto verts = p.vertices();
      std::size_t expected =
          p.is_cycle ? p.edges.size() : p.edges.size() + 1;
      EXPECT_EQ(verts.size(), expected);
    }
    EXPECT_EQ(total, walk.size());
  }
}

// The previous decompose_walk, kept verbatim as the exactness reference: it
// finds a revisit through a hash map from vertex to stack position.
std::vector<Augmentation> reference_decompose_walk(
    const std::vector<Edge>& walk) {
  std::vector<Augmentation> out;
  if (walk.empty()) return out;

  // Recover the vertex sequence v0, v1, ..., vm of the walk.
  std::vector<Vertex> seq;
  seq.reserve(walk.size() + 1);
  if (walk.size() == 1) {
    seq = {walk[0].u, walk[0].v};
  } else {
    Vertex first =
        walk[1].has_endpoint(walk[0].v) ? walk[0].u : walk[0].v;
    seq.push_back(first);
    Vertex cur = walk[0].other(first);
    seq.push_back(cur);
    for (std::size_t i = 1; i < walk.size(); ++i) {
      WMATCH_REQUIRE(walk[i].has_endpoint(cur),
                     "walk edges must be consecutive");
      cur = walk[i].other(cur);
      seq.push_back(cur);
    }
  }

  // Stack-based extraction: whenever the walk returns to a vertex already
  // on the stack, the edges since that visit form a simple cycle.
  std::vector<Vertex> stack_verts{seq[0]};
  std::vector<Edge> stack_edges;
  std::unordered_map<Vertex, std::size_t> pos;
  pos.emplace(seq[0], 0);

  for (std::size_t i = 0; i < walk.size(); ++i) {
    Vertex nxt = seq[i + 1];
    auto it = pos.find(nxt);
    if (it != pos.end()) {
      std::size_t j = it->second;
      Augmentation cycle;
      cycle.is_cycle = true;
      cycle.edges.assign(stack_edges.begin() + static_cast<std::ptrdiff_t>(j),
                         stack_edges.end());
      cycle.edges.push_back(walk[i]);
      // Pop the cycle's interior vertices.
      for (std::size_t v = j + 1; v < stack_verts.size(); ++v) {
        pos.erase(stack_verts[v]);
      }
      stack_verts.resize(j + 1);
      stack_edges.resize(j);
      if (cycle.edges.size() >= 2) out.push_back(std::move(cycle));
    } else {
      stack_edges.push_back(walk[i]);
      stack_verts.push_back(nxt);
      pos.emplace(nxt, stack_verts.size() - 1);
    }
  }

  if (!stack_edges.empty()) {
    Augmentation path;
    path.is_cycle = false;
    path.edges = std::move(stack_edges);
    out.push_back(std::move(path));
  }
  return out;
}

// decompose_walk reproduces the reference on random walks of 1 to 20 edges
// over 3 to 10 vertices, so most walks revisit vertices, some several
// times and some right back over the edge they came by. Each edge is
// stored in a random orientation with a random weight. The second step
// never returns to the start: the first edge's orientation is read off the
// second edge, which must not share both its ends.
TEST(Decompose, MatchesReferenceOnRandomWalks) {
  Rng rng(8);
  std::size_t cycles = 0, back_steps = 0, paths = 0, whole = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 3 + rng.next_below(8);
    const std::size_t len = 1 + rng.next_below(20);
    std::vector<Edge> walk;
    Vertex cur = static_cast<Vertex>(rng.next_below(n));
    const Vertex start = cur;
    for (std::size_t step = 0; step < len; ++step) {
      Vertex next;
      do {
        next = static_cast<Vertex>(rng.next_below(n));
      } while (next == cur || (step == 1 && next == start));
      const Weight w = 1 + static_cast<Weight>(rng.next_below(9));
      walk.push_back(rng.next_bool(0.5) ? Edge{cur, next, w}
                                        : Edge{next, cur, w});
      cur = next;
    }
    const std::vector<Augmentation> got = decompose_walk(walk);
    const std::vector<Augmentation> want = reference_decompose_walk(walk);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].edges, want[i].edges);
      ASSERT_EQ(got[i].is_cycle, want[i].is_cycle);
      got[i].is_cycle ? ++cycles : ++paths;
      // A walk straight back over the edge it came by leaves a 2-edge cycle.
      back_steps += got[i].is_cycle && got[i].edges.size() == 2;
    }
    whole += got.size() == 1 && !got[0].is_cycle &&
             got[0].edges.size() == len;
  }
  EXPECT_GT(cycles, 1000u);
  EXPECT_GT(back_steps, 100u);
  EXPECT_GT(paths, 1000u);
  EXPECT_GT(whole, 100u);
}

}  // namespace
}  // namespace wmatch
