#include "core/decompose.h"

#include <algorithm>

#include "util/require.h"

namespace wmatch::core {

std::vector<Augmentation> decompose_walk(const std::vector<Edge>& walk) {
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
  // on the stack, the edges since that visit form a simple cycle. The
  // stack's vertices are distinct, so a scan finds the earlier visit.
  std::vector<Vertex> stack_verts{seq[0]};
  std::vector<Edge> stack_edges;

  for (std::size_t i = 0; i < walk.size(); ++i) {
    Vertex nxt = seq[i + 1];
    auto it = std::find(stack_verts.begin(), stack_verts.end(), nxt);
    if (it != stack_verts.end()) {
      const auto j = it - stack_verts.begin();
      Augmentation cycle;
      cycle.is_cycle = true;
      cycle.edges.assign(stack_edges.begin() + j, stack_edges.end());
      cycle.edges.push_back(walk[i]);
      // Pop the cycle's interior vertices.
      stack_verts.erase(it + 1, stack_verts.end());
      stack_edges.erase(stack_edges.begin() + j, stack_edges.end());
      if (cycle.edges.size() >= 2) out.push_back(std::move(cycle));
    } else {
      stack_edges.push_back(walk[i]);
      stack_verts.push_back(nxt);
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

}  // namespace wmatch::core
