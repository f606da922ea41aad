// Layered graphs (Definition 4.10) and graph parametrization (Section
// 4.3.1).
//
// Given a random L/R bipartition of V, a weight class W, a weight quantum
// U, and a good (tau^A, tau^B) pair, the layered graph consists of k+1
// copies of V where
//   * layer t keeps the matched L-R edge {u,v} iff
//     w in ((tau^A_t - 1) U, tau^A_t U],
//   * layers t -> t+1 are connected by unmatched edges going from an
//     R-vertex in layer t to an L-vertex in layer t+1 with
//     w in [tau^B_t U, (tau^B_t + 1) U),
//   * intermediate-layer vertices without a kept matched edge are removed,
//     and first/last-layer vertices without one survive only when they are
//     M-free and the corresponding endpoint threshold is 0.
// The construction guarantees (a) the graph is bipartite with the original
// sides, and (b) any augmenting path w.r.t. the intermediate matched edges
// translates to a walk in G with strictly positive gain (soundness of the
// filtering).
//
// L' is the working graph of Algorithm 4 (first/last-layer matched edges
// removed). Algorithm 4 keeps only the augmenting components of
// M' xor M_L', so we materialize only the *core* of L' (compressed ids):
// the union of its M_L'-augmenting paths. The build's forward walk decides
// whether L' holds such a path at all, so one build per pair both skips
// the pairs with none (an empty core) and yields the core of the others.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/tau.h"
#include "graph/graph_view.h"
#include "graph/matching.h"
#include "runtime/runtime.h"
#include "util/rng.h"

namespace wmatch::core {

/// L/R vertex bipartition: side[v] == 0 means L, 1 means R.
using Parametrization = std::vector<char>;

Parametrization random_parametrization(std::size_t n, Rng& rng);

struct LayeredGraph {
  GraphView lprime;             ///< the core of L', compressed; may be empty
  std::vector<char> side;       ///< bipartition of lprime (original sides)
  Matching ml;                  ///< M restricted to lprime (its X edges)
  std::vector<Vertex> original; ///< compressed id -> original vertex
  std::vector<std::uint16_t> layer_of;  ///< compressed id -> layer (1-based)
  std::size_t layers = 0;       ///< k+1
  /// |Y| of the full L', core or not: 0 means the pair is not a layered
  /// graph at all.
  std::size_t num_between_edges = 0;
  /// Distinct (layer, vertex) pairs the build's walks marked: the forward
  /// walk's alone when it dies before the last layer.
  std::size_t marked = 0;
};

/// Pre-filtered view of (G, M) under one parametrization: only L-R
/// crossing edges, split into matched / unmatched, plus what each
/// vertex's gap key (see BucketedEdges) needs. Building this once per
/// (class, parametrization) makes layered-graph construction cheap.
struct CrossingEdges {
  std::vector<Edge> matched;    ///< oriented u in L, v in R
  std::vector<Edge> unmatched;  ///< oriented u in R, v in L
  /// Per vertex x: w(M(x)) when M(x) crosses the bipartition with positive
  /// weight, 0 when x is M-free, and -1 otherwise (M(x) within one side,
  /// or of a weight that fits no bucket).
  std::vector<Weight> mate_weight;
};

CrossingEdges crossing_edges(const GraphView& g, const Matching& m,
                             const Parametrization& par);

/// Crossing edges bucketed by quantized unit value so that a layered graph
/// build touches only the edges its thresholds admit: bucket a of
/// `matched` holds w in ((a-1)U, aU], bucket b of `unmatched` holds
/// w in [bU, (b+1)U). Buckets above `umax` are discarded (out of class).
///
/// The unmatched buckets double as witness lists. The *gap key* of a
/// vertex x is ceil(w(M(x))/U) if M(x) crosses the bipartition and that
/// bucket lies in [1, umax], 0 if x is M-free, and none otherwise. An
/// unmatched edge (u in R, v in L) of bucket b can join layer t to t+1 of
/// a layered graph only if both ends are present there, which needs
/// tau^A_t = key(u) and tau^A_{t+1} = key(v) (a zero key counts only in
/// the first layer for u and the last for v); so it fits the one *gap
/// triple* (key(u), b, key(v)). Each unmatched bucket is stably
/// sorted by (key(u), key(v)), with the edges that have a none key last,
/// so a triple's edges are one run of the bucket, in crossing order.
struct BucketedEdges {
  Weight unit = 1;
  std::vector<std::vector<Edge>> matched;    ///< index = units (1-based)
  std::vector<std::vector<Edge>> unmatched;  ///< index = units (1-based)

  /// One run of unmatched[b]: the edges [begin, end) of the key pair
  /// `keys` = key(u) * (umax + 1) + key(v).
  struct Run {
    std::uint32_t keys, begin, end;
  };
  std::vector<std::vector<Run>> runs;  ///< index = units; sorted by keys

  /// Distinct non-empty bucket indices — the value sets fed to
  /// pairs_for_values.
  std::vector<int> matched_values() const;
  std::vector<int> unmatched_values() const;

  /// The witness list of the gap triple (key_u, b, key_v), in crossing
  /// order; empty when any index lies outside its range.
  std::span<const Edge> witnesses(int key_u, int b, int key_v) const;
};

/// `edges` must come from crossing_edges; umax must lie in [1, 65534].
BucketedEdges bucket_edges(const CrossingEdges& edges, Weight unit, int umax);

/// Builds the core of the layered graph L' for one good pair over
/// pre-bucketed edges. Gap t takes its Y edges straight from the witness
/// list of (tau^A_t, tau^B_t, tau^A_{t+1}), so L' reflects the matching
/// and bipartition that `edges` was built from: `m` and `par` must be the
/// ones given to crossing_edges, and `n` their vertex count (a mismatch
/// throws std::invalid_argument).
///
/// Every M_L'-free vertex of L' is an R end of gap 0 in layer 1 or an L
/// end of the last gap in layer k+1, and an alternating path from the
/// former only moves forward: a Y edge from R(t) to L(t+1), then the X
/// edge to that vertex's M-mate in layer t+1. So a forward walk marks,
/// from the R ends of gap 0, the L end of every gap-t witness whose R end
/// is marked in layer t and, in an interior layer, that vertex's M-mate;
/// L' holds an M_L'-augmenting path exactly when it reaches layer k+1.
/// Only then does a backward walk apply the same rule from the L ends of
/// the last gap towards layer 1. Marks are kept per layer (one byte per
/// (layer, vertex)), since a repeated tau^A puts one vertex in several
/// layers. The core is the pairs both walks mark, and the edges with both
/// ends in it (the mate steps put an X edge there exactly when its L end
/// is marked forward and its R end backward). Interning keeps the full
/// build's order (X edges, then Y edges in gap order, numbered by first
/// occurrence) over the kept edges, so L' becomes exactly the union of its
/// M_L'-augmenting paths, and a maximum matching of the core leaves as
/// many augmenting components as one of the full L'. The build allocates
/// nothing for a pair with an unwitnessed gap, and no id table when the
/// forward walk dies; either gives a valid 0-vertex lprime. It reads `m`
/// for mates and `par` for sides; it ignores `rt` and runs on the calling
/// thread, a parameter kept because existing callers pass it.
LayeredGraph build_layered_graph(const BucketedEdges& edges,
                                 const Matching& m, const Parametrization& par,
                                 const TauPair& tau, std::size_t n,
                                 const runtime::RuntimeConfig& rt = {});

}  // namespace wmatch::core
