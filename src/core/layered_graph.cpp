#include "core/layered_graph.h"

#include <algorithm>
#include <limits>

#include "util/require.h"

namespace wmatch::core {

namespace {

/// The matched-edge bucket of weight w: ceil(w / U), i.e. the a with
/// w in ((a-1)U, aU].
Weight matched_units(Weight w, Weight unit) { return (w + unit - 1) / unit; }

/// Fast reject: every layer with a positive threshold and every gap must
/// have candidate edges (an endpoint layer with tau_a > 0 only admits
/// X-matched vertices, so its bucket must be non-empty too).
bool fast_reject(const BucketedEdges& edges, const TauPair& tau) {
  const int umax = static_cast<int>(edges.matched.size()) - 1;
  for (int a : tau.tau_a) {
    if (a > umax) return true;
    if (a > 0 && edges.matched[static_cast<std::size_t>(a)].empty()) {
      return true;
    }
  }
  for (int b : tau.tau_b) {
    if (b > umax || edges.unmatched[static_cast<std::size_t>(b)].empty()) {
      return true;
    }
  }
  return false;
}

/// Y edges of gap t (u in R at layer t, v in L at layer t+1): the witness
/// list of (tau_a[t], tau_b[t], tau_a[t+1]). A layer with tau_a > 0 keeps
/// the vertices whose gap key is tau_a; tau_a = 0 keeps the M-free
/// vertices, and only in an endpoint layer (R side first, L side last);
/// a negative tau_a keeps none.
std::span<const Edge> gap_edges(const BucketedEdges& edges,
                                const TauPair& tau, std::size_t t) {
  const std::size_t k = tau.num_layers() - 1;
  const int au = tau.tau_a[t], av = tau.tau_a[t + 1];
  if ((au == 0 && t != 0) || (av == 0 && t + 1 != k)) return {};
  return edges.witnesses(au, tau.tau_b[t], av);
}

/// One walk's marks in the byte table shared by both walks, one byte per
/// (layer, vertex) indexed t*n + v, where t counts the layers of L' from 0
/// (layer_of counts from 1). The walk sets and reads its own bit; `count`
/// counts the pairs that either walk marked.
struct LayerMarks {
  std::uint8_t* bytes;
  std::size_t n;
  std::uint8_t bit;
  std::size_t& count;

  void mark(std::size_t t, Vertex v) {
    std::uint8_t& b = bytes[t * n + v];
    count += b == 0;
    b |= bit;
  }
  bool marked(std::size_t t, Vertex u) const {
    return (bytes[t * n + u] & bit) != 0;
  }
};

/// The forward rule of the layering over one pair's k gaps. The near ends
/// of gap 0 are marked in layer 0, and a gap-t witness whose near end is
/// marked in layer t marks its far end in layer t+1 and, when t+1 < k, that
/// vertex's M-mate. Forward, a witness's near end is its R end, so layer 0
/// holds ML'-free R vertices; kBackward runs the same rule from the L ends
/// of gap k-1 towards layer 0, with the ends of every witness swapped.
/// Scanning a gap reads the marks of one layer and sets those of the next,
/// so a vertex that sits in consecutive layers (a repeated tau_a) keeps its
/// marks apart. Returns whether a mark reached the last layer.
template <bool kBackward>
bool walk_layers(std::span<const std::span<const Edge>> gaps,
                 const Matching& m, LayerMarks marks) {
  const std::size_t k = gaps.size();
  const auto layer = [k](std::size_t i) { return kBackward ? k - i : i; };
  const auto gap = [&](std::size_t i) {
    return gaps[kBackward ? k - 1 - i : i];
  };
  const auto near = [](const Edge& e) { return kBackward ? e.v : e.u; };
  const auto far = [](const Edge& e) { return kBackward ? e.u : e.v; };
  for (const Edge& e : gap(0)) marks.mark(layer(0), near(e));
  for (std::size_t i = 0; i < k; ++i) {
    bool reached = false;
    for (const Edge& e : gap(i)) {
      if (!marks.marked(layer(i), near(e))) continue;
      reached = true;
      marks.mark(layer(i + 1), far(e));
      if (i + 1 == k) continue;
      const Vertex mate = m.mate(far(e));
      WMATCH_ASSERT(mate != kNoVertex);
      marks.mark(layer(i + 1), mate);
    }
    if (!reached) return false;
  }
  return true;
}

}  // namespace

Parametrization random_parametrization(std::size_t n, Rng& rng) {
  Parametrization side(n);
  for (auto& s : side) s = rng.next_bool(0.5) ? 1 : 0;
  return side;
}

CrossingEdges crossing_edges(const GraphView& g, const Matching& m,
                             const Parametrization& par) {
  WMATCH_REQUIRE(par.size() == g.num_vertices(), "parametrization size");
  WMATCH_REQUIRE(m.num_vertices() == g.num_vertices(), "matching size");
  const std::span<const Edge> edges = g.edges();
  // Each side is random, so a branch on it mispredicts about every other
  // edge. Instead every edge is written, oriented, to both outputs, and a
  // write position advances only when the edge belongs there: unmatched
  // crossing edges fill one buffer from the front, matched ones from the
  // back (reversed below), and the spare slot keeps the two apart.
  std::vector<Edge> buf(edges.size() + 1);
  std::size_t front = 0, back = edges.size();
  for (const Edge& e : edges) {
    const Vertex su = static_cast<Vertex>(par[e.u]);
    const Vertex crosses = su ^ static_cast<Vertex>(par[e.v]);
    const Vertex matched = m.mate(e.u) == e.v;
    // A matched edge runs from L (side 0) to R, an unmatched one from R
    // to L (the direction Y edges travel): swap the ends when u's side is
    // not the one its kind starts on.
    const Vertex swap = (e.u ^ e.v) & (0u - (su ^ matched ^ 1u));
    const Edge oriented{e.u ^ swap, e.v ^ swap, e.w};
    // Two stores of one value: `buf[front] = buf[back] = ...` reads the
    // edge back from memory, which measured over twice as slow.
    buf[front] = oriented;
    buf[back] = oriented;
    front += crosses & (matched ^ 1u);
    back -= crosses & matched;
  }
  CrossingEdges out;
  out.matched.assign(buf.begin() + static_cast<std::ptrdiff_t>(back) + 1,
                     buf.end());
  std::reverse(out.matched.begin(), out.matched.end());
  buf.resize(front);
  out.unmatched = std::move(buf);

  out.mate_weight.resize(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const Vertex mate = m.mate(v);
    const bool free = mate == kNoVertex;
    const Weight w = m.weight_at(v);
    // All ones when M(v) crosses with positive weight, else 0; the same
    // masking keeps this loop free of a branch on the sides.
    const Weight keep =
        -static_cast<Weight>((par[v] != par[free ? v : mate]) & (w > 0));
    out.mate_weight[v] = free ? 0 : (w & keep) | ~keep;
  }
  return out;
}

BucketedEdges bucket_edges(const CrossingEdges& edges, Weight unit, int umax) {
  // umax < 2^16 - 1 keeps every key pair, (umax + 1)^2 included, in 32 bits.
  WMATCH_REQUIRE(unit >= 1 && umax >= 1 && umax < 65535,
                 "bad bucket parameters");
  BucketedEdges out;
  out.unit = unit;
  out.matched.assign(static_cast<std::size_t>(umax) + 1, {});
  out.unmatched.assign(static_cast<std::size_t>(umax) + 1, {});
  out.runs.assign(static_cast<std::size_t>(umax) + 1, {});
  for (const Edge& e : edges.matched) {
    Weight units = matched_units(e.w, unit);
    if (units >= 1 && units <= umax) {
      out.matched[static_cast<std::size_t>(units)].push_back(e);
    }
  }
  for (const Edge& e : edges.unmatched) {
    Weight units = e.w / unit;  // floor: w in [bU, (b+1)U)
    if (units >= 1 && units <= umax) {
      out.unmatched[static_cast<std::size_t>(units)].push_back(e);
    }
  }

  // Witness lists: a counting sort of each unmatched bucket by key pair
  // key(u) * (umax + 1) + key(v), over the pairs that occur in it, in
  // increasing order. Edges with a none key take the largest pair, so
  // they go last and get no run. The sort is stable.
  const std::uint32_t none = static_cast<std::uint32_t>(umax) + 1;
  std::vector<std::uint32_t> key(edges.mate_weight.size(), none);
  for (std::size_t x = 0; x < key.size(); ++x) {
    const Weight w = edges.mate_weight[x];
    if (w == 0) {
      key[x] = 0;  // M-free
    } else if (w > 0 && matched_units(w, unit) <= umax) {
      key[x] = static_cast<std::uint32_t>(matched_units(w, unit));
    }
  }
  const std::uint32_t none_pair = none * none;
  // Per key pair: its count in the bucket, then its next write position.
  std::vector<std::uint32_t> slot(none_pair + 1, 0);
  std::vector<std::uint32_t> pair_of, pairs;  // per edge; distinct, sorted
  std::vector<Edge> sorted;
  for (std::size_t b = 1; b < out.unmatched.size(); ++b) {
    std::vector<Edge>& bucket = out.unmatched[b];
    if (bucket.empty()) continue;
    // Pair ids first, counts in a second pass: one fused loop measured
    // about twice as slow.
    pair_of.resize(bucket.size());
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const std::uint32_t ku = key[bucket[i].u], kv = key[bucket[i].v];
      pair_of[i] = ku == none || kv == none ? none_pair : ku * none + kv;
    }
    pairs.clear();
    for (std::uint32_t p : pair_of) {
      if (slot[p]++ == 0) pairs.push_back(p);
    }
    std::sort(pairs.begin(), pairs.end());
    std::uint32_t next = 0;
    for (std::uint32_t p : pairs) {
      const std::uint32_t count = slot[p];
      if (p != none_pair) out.runs[b].push_back({p, next, next + count});
      slot[p] = next;
      next += count;
    }
    sorted.resize(bucket.size());
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      sorted[slot[pair_of[i]]++] = bucket[i];
    }
    for (std::uint32_t p : pairs) slot[p] = 0;
    bucket.swap(sorted);
  }
  return out;
}

std::vector<int> BucketedEdges::matched_values() const {
  std::vector<int> out;
  for (std::size_t a = 1; a < matched.size(); ++a) {
    if (!matched[a].empty()) out.push_back(static_cast<int>(a));
  }
  return out;
}

std::vector<int> BucketedEdges::unmatched_values() const {
  std::vector<int> out;
  for (std::size_t b = 1; b < unmatched.size(); ++b) {
    if (!unmatched[b].empty()) out.push_back(static_cast<int>(b));
  }
  return out;
}

std::span<const Edge> BucketedEdges::witnesses(int key_u, int b,
                                               int key_v) const {
  const int umax = static_cast<int>(unmatched.size()) - 1;
  if (b < 1 || b > umax || key_u < 0 || key_u > umax || key_v < 0 ||
      key_v > umax) {
    return {};
  }
  const std::uint32_t keys = static_cast<std::uint32_t>(key_u) *
                                 static_cast<std::uint32_t>(umax + 1) +
                             static_cast<std::uint32_t>(key_v);
  const std::vector<Run>& list = runs[static_cast<std::size_t>(b)];
  auto it = std::lower_bound(
      list.begin(), list.end(), keys,
      [](const Run& run, std::uint32_t k) { return run.keys < k; });
  if (it == list.end() || it->keys != keys) return {};
  const std::vector<Edge>& bucket = unmatched[static_cast<std::size_t>(b)];
  return {bucket.data() + it->begin, bucket.data() + it->end};
}

LayeredGraph build_layered_graph(const BucketedEdges& edges,
                                 const Matching& m,
                                 const Parametrization& par,
                                 const TauPair& tau, std::size_t n,
                                 const runtime::RuntimeConfig& /*rt*/) {
  const std::size_t layers = tau.num_layers();
  WMATCH_REQUIRE(layers >= 2, "layered graph needs >= 2 layers");
  WMATCH_REQUIRE(n == m.num_vertices() && n == par.size(),
                 "layered graph size");
  const std::size_t k = layers - 1;

  LayeredGraph out;
  out.layers = layers;
  if (fast_reject(edges, tau)) return out;
  // |Y| counts every gap. A path takes one Y edge from each, so the build
  // allocates nothing for the pair unless every gap has a witness.
  bool every_gap = true;
  for (std::size_t t = 0; t < k; ++t) {
    const std::size_t size = gap_edges(edges, tau, t).size();
    out.num_between_edges += size;
    every_gap &= size > 0;
  }
  if (!every_gap) return out;
  std::vector<std::span<const Edge>> gaps(k);
  for (std::size_t t = 0; t < k; ++t) gaps[t] = gap_edges(edges, tau, t);

  // The core: the (layer, vertex) pairs marked by both walks. L' holds an
  // M_L'-augmenting path exactly when the forward walk reaches the last
  // layer; otherwise the core is empty and the backward walk is not run.
  constexpr std::uint8_t kForwardMark = 1, kBackwardMark = 2;
  std::vector<std::uint8_t> mark(layers * n, 0);
  const LayerMarks forward{mark.data(), n, kForwardMark, out.marked};
  if (!walk_layers<false>(gaps, m, forward)) return out;
  walk_layers<true>(gaps, m, {mark.data(), n, kBackwardMark, out.marked});
  const auto in_core = [&](std::size_t t, Vertex v) {
    return mark[t * n + v] == (kForwardMark | kBackwardMark);
  };

  // Compress the core's (layer, vertex) pairs, numbered in first-occurrence
  // order through a dense table indexed by t*n + v, over its edges (those
  // with both ends in it) in the full build's order: the intermediate X
  // edges first (first/last-layer matched edges belong to L but are
  // removed in L'), then the Y edges in gap order.
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> id(layers * n, kUnset);
  auto intern = [&](std::size_t t, Vertex v) {
    std::uint32_t& slot = id[t * n + v];
    if (slot == kUnset) {
      slot = static_cast<std::uint32_t>(out.original.size());
      out.original.push_back(v);
      out.layer_of.push_back(static_cast<std::uint16_t>(t + 1));
      out.side.push_back(par[v]);
    }
    return slot;
  };
  std::vector<Edge> kept;  // compressed; the first num_x are X edges
  for (std::size_t t = 1; t < k; ++t) {
    const int a = tau.tau_a[t];
    if (a <= 0) continue;
    for (const Edge& e : edges.matched[static_cast<std::size_t>(a)]) {
      if (in_core(t, e.u) && in_core(t, e.v)) {
        kept.push_back({intern(t, e.u), intern(t, e.v), e.w});
      }
    }
  }
  const std::size_t num_x = kept.size();
  for (std::size_t t = 0; t < k; ++t) {
    for (const Edge& e : gaps[t]) {
      if (in_core(t, e.u) && in_core(t + 1, e.v)) {
        kept.push_back({intern(t, e.u), intern(t + 1, e.v), e.w});
      }
    }
  }

  Graph lp(out.original.size());
  Matching ml(out.original.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    lp.add_edge(kept[i].u, kept[i].v, kept[i].w);
    if (i < num_x) ml.add(kept[i]);
  }
  out.lprime = GraphView(std::move(lp));
  out.ml = std::move(ml);
  return out;
}

}  // namespace wmatch::core
