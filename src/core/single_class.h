// Algorithm 4 (Theorem 4.8): augmentations for a single augmentation class.
//
// For a fixed class weight W: draw a random L/R bipartition, and for every
// good (tau^A, tau^B) pair build the core of the layered graph L' (the
// union of its M_{L'}-augmenting paths). When the core is non-empty, solve
// it with the unweighted bipartite black box, extract the augmenting paths
// of M' ∪ M_{L'}, translate them back to G, decompose every translated
// walk (Lemma 4.11) and keep its best-gain component. The returned
// collection is vertex-disjoint and every element has strictly positive
// gain. A pair whose core is empty could yield no candidate, so skipping
// it changes no result. Solving the core instead of L' keeps every
// augmenting path, so an exact black box finds as many augmenting
// components; but the black box sees a different graph, so its matching,
// and with it the candidates, may differ (DESIGN.md §2).
//
// Divergence from the paper's Line 13 (documented in DESIGN.md): instead
// of keeping only the single best tau pair's augmentation set, we pool
// candidates from all pairs and greedily select disjoint ones by gain —
// a strict improvement that does not affect soundness.
#pragma once

#include <vector>

#include "core/layered_graph.h"
#include "core/matcher.h"
#include "core/tau.h"
#include "graph/augmentation.h"
#include "graph/graph_view.h"
#include "graph/matching.h"
#include "util/rng.h"

namespace wmatch::core {

struct SingleClassResult {
  std::vector<Augmentation> augmentations;  ///< disjoint, positive gain
  Weight total_gain = 0;     ///< sum of gains against the input matching
  /// Pairs whose L' has a Y edge (|Y| > 0), whether or not their core was
  /// empty and so kept them from the black box.
  std::size_t layered_graphs = 0;
  /// Peak words this class stores at once under the semi-streaming
  /// convention (streaming/memory_meter.h): the bucketed class-window
  /// edges, one build's walk marks or one core's vertex maps +
  /// intermediate matching + black-box working state (O(n) per class),
  /// and the candidate pool.
  /// A deterministic function of the inputs, so per-class peaks can be
  /// summed at the round barrier regardless of thread count.
  std::size_t stored_words_peak = 0;
};

struct SingleClassOptions {
  double delta = 0.1;  ///< black-box approximation slack
  /// Number of independent random L/R bipartitions tried per invocation.
  /// Each short augmentation survives one random bipartition with
  /// probability 2^-|C|; repetitions trade black-box work for per-round
  /// recall (the paper achieves the same by iterating Theorem 4.8).
  std::size_t parametrizations = 1;
  /// Ablation toggle (bench E8). When false, only *classic* augmenting
  /// paths are applied: no cycles, and no paths that remove matched edges
  /// off the path (in weighted semantics such paths are cycle-equivalent —
  /// they can improve a perfect matching, which is exactly the capability
  /// the ablation is meant to remove).
  bool enable_cycles = true;
};

/// The tau pairs are generated internally per class via pairs_for_values,
/// restricted to the quantized weights that occur under this class's unit
/// (see tau.h for the substitution rationale). rng's state after the call
/// is not part of the contract: the last pair sampling may skip draws that
/// could add no pair.
SingleClassResult find_class_augmentations(const GraphView& g,
                                           const Matching& m,
                                           Weight w_class,
                                           const TauConfig& tau_cfg,
                                           const SingleClassOptions& opts,
                                           UnweightedMatcher& matcher,
                                           Rng& rng);

}  // namespace wmatch::core
