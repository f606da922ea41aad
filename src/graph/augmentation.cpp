#include "graph/augmentation.h"

#include <algorithm>

#include "util/require.h"

namespace wmatch {

std::vector<Vertex> Augmentation::vertices() const {
  std::vector<Vertex> out;
  if (edges.empty()) return out;
  if (edges.size() == 1) return {edges[0].u, edges[0].v};
  // Orient the first edge so that traversal is consistent: its second
  // endpoint must be shared with the second edge.
  Vertex first = edges[1].has_endpoint(edges[0].v) ? edges[0].u : edges[0].v;
  out.push_back(first);
  Vertex cur = edges[0].other(first);
  out.push_back(cur);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    cur = edges[i].other(cur);
    if (is_cycle && i + 1 == edges.size()) break;  // closes back to first
    out.push_back(cur);
  }
  return out;
}

bool Augmentation::is_valid_alternating(const Matching& m) const {
  if (edges.empty()) return false;
  // Connectivity / simplicity.
  std::vector<Vertex> verts = vertices();
  std::vector<Vertex> sorted = verts;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return false;  // repeated vertex
  }
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

std::vector<Edge> Augmentation::matching_neighborhood(const Matching& m) const {
  std::vector<Edge> out;
  for (Vertex v : vertices()) {
    if (!m.is_matched(v)) continue;
    const Edge e{v, m.mate(v), m.weight_at(v)};
    if (std::none_of(out.begin(), out.end(),
                     [&](const Edge& f) { return f.key() == e.key(); })) {
      out.push_back(e);
    }
  }
  return out;
}

Weight Augmentation::gain(const Matching& m) const {
  Weight added = 0;
  for (const Edge& e : edges) {
    if (!m.contains(e)) added += e.w;
  }
  Weight removed = 0;
  for (const Edge& e : matching_neighborhood(m)) removed += e.w;
  return added - removed;
}

Weight Augmentation::apply(Matching& m) const {
  Weight before = m.weight();
  std::vector<Edge> to_add;
  for (const Edge& e : edges) {
    if (!m.contains(e)) to_add.push_back(e);
  }
  for (const Edge& e : matching_neighborhood(m)) m.remove_at(e.u);
  for (const Edge& e : to_add) m.add(e);
  return m.weight() - before;
}

std::vector<Vertex> Augmentation::touched_vertices(const Matching& m) const {
  std::vector<Vertex> out;
  for (Vertex v : vertices()) {
    out.push_back(v);
    if (m.is_matched(v)) out.push_back(m.mate(v));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Augmentation> symmetric_difference_components(const Matching& m,
                                                          const Matching& n) {
  WMATCH_REQUIRE(m.num_vertices() == n.num_vertices(),
                 "matchings over different vertex sets");
  const std::size_t nv = m.num_vertices();

  // Neighbors of v in the symmetric difference (at most one from each side).
  auto diff_neighbors = [&](Vertex v, Vertex out[2], Weight w[2]) {
    int cnt = 0;
    Vertex a = m.mate(v);
    if (a != kNoVertex && n.mate(v) != a) {
      out[cnt] = a;
      w[cnt++] = m.weight_at(v);
    }
    Vertex b = n.mate(v);
    if (b != kNoVertex && m.mate(v) != b) {
      out[cnt] = b;
      w[cnt++] = n.weight_at(v);
    }
    return cnt;
  };

  std::vector<char> visited(nv, 0);
  std::vector<Augmentation> out;

  auto walk = [&](Vertex start) {
    // Walk from `start` until a dead end or back to start.
    Augmentation aug;
    Vertex prev = kNoVertex;
    Vertex cur = start;
    visited[start] = 1;
    for (;;) {
      Vertex nb[2];
      Weight wt[2];
      int cnt = diff_neighbors(cur, nb, wt);
      int pick = -1;
      for (int i = 0; i < cnt; ++i) {
        if (nb[i] != prev) {
          pick = i;
          break;
        }
      }
      // Both neighbors equal prev can happen only with cnt==1.
      if (pick < 0) break;
      Vertex nxt = nb[pick];
      aug.edges.push_back({cur, nxt, wt[pick]});
      if (nxt == start) {
        aug.is_cycle = true;
        break;
      }
      if (visited[nxt]) break;  // should not happen for valid matchings
      visited[nxt] = 1;
      prev = cur;
      cur = nxt;
    }
    return aug;
  };

  // Path components: start from degree-1 endpoints.
  for (Vertex v = 0; v < nv; ++v) {
    if (visited[v]) continue;
    Vertex nb[2];
    Weight wt[2];
    int cnt = diff_neighbors(v, nb, wt);
    if (cnt == 1) {
      Augmentation aug = walk(v);
      if (!aug.edges.empty()) out.push_back(std::move(aug));
    }
  }
  // Cycle components: remaining unvisited vertices with degree 2.
  for (Vertex v = 0; v < nv; ++v) {
    if (visited[v]) continue;
    Vertex nb[2];
    Weight wt[2];
    int cnt = diff_neighbors(v, nb, wt);
    if (cnt == 2) {
      Augmentation aug = walk(v);
      if (!aug.edges.empty()) out.push_back(std::move(aug));
    }
  }
  return out;
}

std::vector<std::size_t> select_disjoint(const std::vector<Augmentation>& augs,
                                         const Matching& m) {
  std::vector<char> used(m.num_vertices(), 0);
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < augs.size(); ++i) {
    std::vector<Vertex> touched = augs[i].touched_vertices(m);
    bool conflict = std::any_of(touched.begin(), touched.end(),
                                [&](Vertex v) { return used[v] != 0; });
    if (conflict) continue;
    for (Vertex v : touched) used[v] = 1;
    chosen.push_back(i);
  }
  return chosen;
}

}  // namespace wmatch
