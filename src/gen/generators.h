// Random graph generators used by the benchmark harness and the tests.
//
// All generators are deterministic given the Rng. Weights are assigned
// separately (see gen/weights.h) unless the generator is inherently
// weighted. Generated graphs are simple (no self-loops or parallel edges).
#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "runtime/runtime.h"
#include "util/rng.h"

namespace wmatch::gen {

/// G(n, m): exactly m distinct uniform random edges (unit weights).
Graph erdos_renyi(std::size_t n, std::size_t m, Rng& rng);

/// Random bipartite graph with n_left + n_right vertices and m edges.
/// Left vertices are [0, n_left), right vertices [n_left, n_left+n_right).
Graph random_bipartite(std::size_t n_left, std::size_t n_right, std::size_t m,
                       Rng& rng);

/// Barabási–Albert preferential attachment: each new vertex attaches
/// `attach` edges to existing vertices (degree-proportionally).
Graph barabasi_albert(std::size_t n, std::size_t attach, Rng& rng);

/// Random geometric graph: n points in the unit square, edge when distance
/// <= radius. Weight = round(scale * (1 - dist/radius)) + 1, so close pairs
/// are heavy (models e.g. affinity matching). The O(n^2) pair scan runs on
/// the runtime thread pool selected by `rt` (coordinates are drawn
/// sequentially first, so the graph is bit-identical for any thread
/// count). Generators that consume the Rng per candidate edge
/// (erdos_renyi, random_bipartite, barabasi_albert) stay sequential: their
/// output is defined by a single rejection-sampling stream.
Graph random_geometric(std::size_t n, double radius, Weight scale, Rng& rng,
                       const runtime::RuntimeConfig& rt = {});

/// Simple path v0 - v1 - ... - v_{n-1} with the given edge weights
/// (weights.size() == n-1).
Graph path_graph(const std::vector<Weight>& weights);

/// Cycle v0 - v1 - ... - v_{n-1} - v0 with the given edge weights
/// (weights.size() == n, n even for alternation-friendly instances).
Graph cycle_graph(const std::vector<Weight>& weights);

/// Returns the edges of g in a uniformly random order (random-edge-arrival
/// stream order).
std::vector<Edge> random_stream(const GraphView& g, Rng& rng);

/// Adversarial order for greedy/local-ratio: edges sorted by increasing
/// weight (light edges first poison greedy choices).
std::vector<Edge> increasing_weight_stream(const GraphView& g);

/// Heaviest-first order: benign for greedy (it becomes the 1/2-approx
/// greedy-by-weight) but adversarial for algorithms that rely on light
/// prefixes.
std::vector<Edge> decreasing_weight_stream(const GraphView& g);

/// Vertex-clustered order: edges grouped by min endpoint (models streams
/// produced by scanning an adjacency store); within groups the relative
/// order is preserved. Breaks the "uniformly random" assumption while
/// remaining non-degenerate.
std::vector<Edge> clustered_stream(const GraphView& g);

}  // namespace wmatch::gen
