// Hopcroft–Karp maximum-cardinality bipartite matching, with an optional
// phase limit.
//
// The phase-limited variant is this library's realization of the paper's
// `Unw-Bip-Matching` black box: after k phases the matching has no
// augmenting path shorter than 2k+1, so by Fact 1.3 it is a
// (1 - 1/(k+1))-approximate maximum matching. Running ceil(1/delta) phases
// therefore yields the (1-delta)-approximation Theorem 4.1 consumes, and
// each phase maps to O(1) passes in the streaming model / O(1) rounds of
// BFS+DFS in a distributed simulation.
#pragma once

#include <vector>

#include "graph/graph_view.h"
#include "graph/matching.h"

namespace wmatch::exact {

struct HopcroftKarpResult {
  Matching matching;
  std::size_t phases = 0;  ///< phases actually executed
};

/// `side[v]` is 0 (left) or 1 (right); every edge must cross sides.
/// `max_phases == 0` means run to optimality.
/// `initial`, when provided, seeds the matching (must be valid in g and
/// respect the bipartition).
/// Each phase is a BFS that labels every alternating level reachable from
/// the free left vertices, then one DFS per free left root in vertex
/// order, following CSR incident order. The DFS roots augment along a
/// maximal set of vertex-disjoint paths of the level graph, so every phase
/// lengthens the shortest augmenting path by at least two (Fact 1.3's
/// bound). The result is a pure function of the inputs.
HopcroftKarpResult hopcroft_karp(const GraphView& g,
                                 const std::vector<char>& side,
                                 std::size_t max_phases = 0,
                                 const Matching* initial = nullptr);

/// Attempts a 2-coloring of g; returns empty vector if g is not bipartite.
std::vector<char> bipartition_of(const GraphView& g);

}  // namespace wmatch::exact
