// Immutable flat-CSR view of a graph — the read-shared data plane.
//
// GraphView freezes a builder Graph into four contiguous slot arrays:
//
//   offsets_[n+1]   incident-slot range of each vertex
//   neighbor_[2m]   the other endpoint at each slot
//   edge_id_[2m]    the edge index at each slot
//   weight_[2m]     the edge weight at each slot
//
// plus the original edge list. Everything is built eagerly, exactly once,
// at construction (Instance / InstanceCache build time) and never mutated
// afterwards, so a single view is shared read-only by every thread of
// every concurrent job with no synchronization. There is deliberately no
// lazy path and no `mutable` state (enforced by the `no-mutable-graph`
// lint check); the old Graph::incident() lazy build raced when two jobs
// first-touched a cached instance concurrently.
//
// The CSR fill replicates the old lazy build order bit for bit: for each
// edge i in insertion order, slot i is appended to both endpoints' lists,
// so each vertex's incident edge ids come out ascending. Traversal order —
// and therefore every downstream counter — is unchanged by the refactor.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace wmatch {

class GraphView {
 public:
  /// An empty view (0 vertices, 0 edges).
  GraphView() = default;

  /// Freezes `g` (already validated by Graph's builder API) into CSR form.
  explicit GraphView(Graph g);

  std::size_t num_vertices() const { return n_; }
  std::size_t num_edges() const { return edges_.size(); }

  std::span<const Edge> edges() const { return edges_; }
  const Edge& edge(std::size_t i) const { return edges_[i]; }

  /// Edge indices incident to `v`, ascending.
  std::span<const std::uint32_t> incident(Vertex v) const {
    return {edge_id_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Other endpoints of v's incident edges (slot-parallel with incident()).
  std::span<const Vertex> neighbors(Vertex v) const {
    return {neighbor_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Weights of v's incident edges (slot-parallel with incident()).
  std::span<const Weight> incident_weights(Vertex v) const {
    return {weight_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  std::size_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Raw CSR arrays, for code that walks slots directly.
  std::span<const std::uint32_t> offsets() const {
    static constexpr std::uint32_t kEmpty[1] = {0};
    if (offsets_.empty()) return kEmpty;
    return offsets_;
  }
  std::span<const Vertex> neighbor_slots() const { return neighbor_; }
  std::span<const std::uint32_t> edge_id_slots() const { return edge_id_; }
  std::span<const Weight> weight_slots() const { return weight_; }

  /// Total weight of all edges (precomputed at freeze time).
  Weight total_weight() const { return total_weight_; }

  /// Largest edge weight, 0 for an empty graph (precomputed).
  Weight max_weight() const { return max_weight_; }

 private:
  std::size_t n_ = 0;
  std::vector<Edge> edges_;
  /// Empty in a default view, which then allocates nothing: the layered
  /// graph build returns one for every tau-pair, nearly all of them empty.
  std::vector<std::uint32_t> offsets_;
  std::vector<Vertex> neighbor_;
  std::vector<std::uint32_t> edge_id_;
  std::vector<Weight> weight_;
  Weight total_weight_ = 0;
  Weight max_weight_ = 0;
};

/// Freezes a builder into a view in expression position — handy for call
/// sites that assemble a throwaway Graph inline (tests, benches,
/// examples). Takes the builder by value: pass a temporary or
/// std::move(g) to avoid the copy; passing an lvalue deliberately copies,
/// leaving the builder reusable.
inline GraphView freeze(Graph g) { return GraphView(std::move(g)); }

}  // namespace wmatch
