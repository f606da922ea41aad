// Walk decomposition (Lemma 4.11).
//
// An augmenting path of a layered graph, translated back to G by dropping
// layer indices, is a walk that may repeat vertices and edges. The random
// L/R bipartition orients every edge (matched edges L->R, unmatched edges
// R->L), making the walk a directed trail whose Eulerian decomposition is
// one simple path plus a collection of simple even-length cycles — each of
// which alternates between matched and unmatched edges and is therefore a
// candidate augmentation on its own.
#pragma once

#include <vector>

#include "graph/augmentation.h"
#include "graph/types.h"

namespace wmatch::core {

/// Decomposes a walk (consecutive edges share an endpoint) into a simple
/// path (possibly absent) and simple cycles. The edge sequence of every
/// returned component is a contiguous-in-order subsequence of the walk, so
/// alternation is inherited from the walk. Each step scans the stack of
/// open vertices for a revisit, so the cost is quadratic in the walk
/// length; the class search passes walks of at most 2 * max_layers - 3
/// edges (9 at the default of 6 layers).
std::vector<Augmentation> decompose_walk(const std::vector<Edge>& walk);

}  // namespace wmatch::core
