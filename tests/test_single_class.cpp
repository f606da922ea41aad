#include <gtest/gtest.h>

#include <algorithm>

#include "core/single_class.h"
#include "core/decompose.h"
#include "core/main_alg.h"
#include "gen/generators.h"
#include "gen/hard_instances.h"
#include "gen/weights.h"
#include "obs/metrics.h"
#include "streaming/memory_meter.h"
#include "util/require.h"
#include "util/rng.h"

namespace wmatch::core {

// find_class_augmentations as it was before the skip, kept verbatim as the
// reference for it: it builds and solves every pair with |Y| > 0. Its one
// addition reports the most walk marks a build made.
namespace {

/// Translates an augmenting path of the layered graph (compressed-id edge
/// sequence) back to a walk in G.
std::vector<Edge> translate_walk(const LayeredGraph& lg,
                                 const std::vector<Edge>& layered_path) {
  std::vector<Edge> walk;
  walk.reserve(layered_path.size());
  for (const Edge& e : layered_path) {
    walk.push_back({lg.original[e.u], lg.original[e.v], e.w});
  }
  return walk;
}

SingleClassResult reference_find_class_augmentations(
    const GraphView& g, const Matching& m, Weight w_class,
    const TauConfig& tau_cfg, const SingleClassOptions& opts,
    UnweightedMatcher& matcher, Rng& rng, std::size_t& most_marked) {
  SingleClassResult result;
  const Weight unit = quantum(w_class, tau_cfg);
  const int umax = max_units(tau_cfg);

  // Semi-streaming accounting for this class: what the per-class instance
  // of the reduction *stores* between passes (the stream itself is free).
  // All charges are deterministic functions of (g, m, w_class, seed), so
  // the peak is thread-count invariant and safe to sum across classes at
  // the round barrier (see DESIGN.md §5).
  MemoryMeter meter;
  std::size_t candidate_words = 0;

  // Candidate augmentations pooled over all bipartitions and tau pairs.
  // (Divergence from the paper's Line 13 — see file comment in
  // single_class.h.)
  std::vector<Augmentation> candidates;

  const std::size_t reps = std::max<std::size_t>(1, opts.parametrizations);
  for (std::size_t rep = 0; rep < reps; ++rep) {
  Parametrization par = random_parametrization(g.num_vertices(), rng);
  CrossingEdges crossing = crossing_edges(g, m, par);
  if (crossing.unmatched.empty()) continue;
  BucketedEdges buckets = bucket_edges(crossing, unit, umax);

  // The class-window edges kept across passes (out-of-class buckets are
  // already discarded by bucket_edges).
  std::size_t bucket_words = 0;
  for (const auto& b : buckets.matched) bucket_words += b.size();
  for (const auto& b : buckets.unmatched) bucket_words += b.size();
  meter.add(bucket_words);

  // Nothing draws from rng after the last repetition's pairs, so that call
  // may skip sampling that can add no pair.
  std::vector<TauPair> pairs =
      pairs_for_values(buckets.matched_values(), buckets.unmatched_values(),
                       tau_cfg, rng, /*rng_discarded=*/rep + 1 == reps);

  for (const TauPair& pair : pairs) {
    LayeredGraph lg =
        build_layered_graph(buckets, m, par, pair, g.num_vertices());
    most_marked = std::max(most_marked, lg.marked);
    if (lg.num_between_edges == 0) continue;
    ++result.layered_graphs;

    // One layered subgraph lives at a time: the compressed vertex maps
    // (original, layer_of, side), the intermediate matching M_L', and the
    // black box's O(|V(L')|) working state (dist + match arrays).
    const std::size_t lg_words =
        3 * lg.lprime.num_vertices() + lg.ml.size();
    const std::size_t bb_words = 2 * lg.lprime.num_vertices();
    meter.add(lg_words + bb_words);

    Matching mprime = matcher.solve(lg.lprime, lg.side, opts.delta);
    meter.add(mprime.size());

    // Augmenting paths of M' w.r.t. ML' are path components of the
    // symmetric difference with one more M'-edge than ML'-edge.
    for (Augmentation& comp :
         symmetric_difference_components(mprime, lg.ml)) {
      if (comp.is_cycle) continue;
      std::size_t in_mprime = 0;
      for (const Edge& e : comp.edges) {
        if (mprime.contains(e)) ++in_mprime;
      }
      if (2 * in_mprime <= comp.edges.size()) continue;  // not augmenting

      std::vector<Edge> walk = translate_walk(lg, comp.edges);
      Augmentation best;
      Weight best_gain = 0;
      for (Augmentation& piece : decompose_walk(walk)) {
        if (!piece.is_valid_alternating(m)) continue;
        if (!opts.enable_cycles) {
          if (piece.is_cycle) continue;
          // Classic path augmentations only: every removed matched edge
          // must lie on the path itself.
          std::size_t on_path_matched = 0;
          for (const Edge& e : piece.edges) {
            if (m.contains(e)) ++on_path_matched;
          }
          if (piece.matching_neighborhood(m).size() != on_path_matched) {
            continue;
          }
        }
        Weight gain = piece.gain(m);
        if (gain > best_gain) {
          best_gain = gain;
          best = std::move(piece);
        }
      }
      if (best_gain > 0) {
        const std::size_t words = best.edges.size();
        meter.add(words);  // pooled candidate, held until selection
        candidate_words += words;
        candidates.push_back(std::move(best));
      }
    }
    meter.sub(lg_words + bb_words + mprime.size());  // subgraph retired
  }
  meter.sub(bucket_words);  // class window dropped with the bipartition
  }  // parametrization repetitions
  meter.sub(candidate_words);
  result.stored_words_peak = meter.peak();

  // Greedy selection by decreasing gain; keep vertex-disjoint ones.
  std::vector<std::pair<Weight, std::size_t>> order;
  order.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    order.emplace_back(candidates[i].gain(m), i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& x, const auto& y) { return x.first > y.first; });
  std::vector<Augmentation> sorted;
  sorted.reserve(candidates.size());
  for (const auto& [gain, idx] : order) sorted.push_back(std::move(candidates[idx]));

  for (std::size_t idx : select_disjoint(sorted, m)) {
    Weight gain = sorted[idx].gain(m);
    WMATCH_ASSERT(gain > 0);
    result.total_gain += gain;
    result.augmentations.push_back(std::move(sorted[idx]));
  }
  return result;
}

}  // namespace

}  // namespace wmatch::core

namespace wmatch {
namespace {

using core::SingleClassOptions;

// Bipartitions are random inside find_class_augmentations; retry a few
// times — the paper's guarantee is in expectation (each short augmentation
// survives a random partition with probability >= 2^-|C|).
template <typename Pred>
bool eventually(int tries, Pred pred) {
  for (int i = 0; i < tries; ++i) {
    if (pred(i)) return true;
  }
  return false;
}

TEST(SingleClass, FindsPlantedThreeAugmentation) {
  // a(0) - u(1) = v(2) - b(3): matched (1,2) w=10, wings w=9.
  Graph g(4);
  g.add_edge(0, 1, 9);
  g.add_edge(1, 2, 10);
  g.add_edge(2, 3, 9);
  Matching m(4);
  m.add(1, 2, 10);

  core::TauConfig tcfg;
  core::ExactMatcher matcher;

  bool found = eventually(20, [&](int seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 100);
    auto result =
        core::find_class_augmentations(freeze(g), m, 16, tcfg, {}, matcher, rng);
    return result.total_gain >= 8;  // 18 - 10
  });
  EXPECT_TRUE(found);
}

TEST(SingleClass, FindsAugmentingCycle) {
  // The 4-cycle (3,4,3,4): only a cycle augmentation (gain 2) improves.
  auto inst = gen::four_cycle_family(1, 3, 1);
  core::TauConfig tcfg;
  tcfg.granularity = 0.125;  // unit 1 at W=8: profile a=3, b=4 is exact
  core::ExactMatcher matcher;

  bool found = eventually(60, [&](int seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 500);
    auto result = core::find_class_augmentations(freeze(inst.graph), inst.matching, 8,
                                                 tcfg, {}, matcher, rng);
    for (const auto& aug : result.augmentations) {
      if (aug.is_cycle) return true;
    }
    return false;
  });
  EXPECT_TRUE(found);
}

TEST(SingleClass, CycleAblationSuppressesCycles) {
  auto inst = gen::four_cycle_family(4, 3, 1);
  core::TauConfig tcfg;
  tcfg.granularity = 0.125;
  core::ExactMatcher matcher;
  SingleClassOptions opts;
  opts.enable_cycles = false;
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    auto result = core::find_class_augmentations(freeze(inst.graph), inst.matching, 8,
                                                 tcfg, opts, matcher, rng);
    for (const auto& aug : result.augmentations) {
      EXPECT_FALSE(aug.is_cycle);
    }
    // A perfect matching has no augmenting paths: nothing may be found.
    EXPECT_EQ(result.total_gain, 0);
  }
}

TEST(SingleClass, AllReturnedAugmentationsSoundAndDisjoint) {
  Rng rng(3);
  Graph g = gen::erdos_renyi(50, 250, rng);
  g = gen::assign_weights(g, gen::WeightDist::kUniform, 64, rng);
  Matching m(50);
  for (const Edge& e : g.edges()) {
    if (!m.is_matched(e.u) && !m.is_matched(e.v)) m.add(e);
  }
  core::TauConfig tcfg;
  core::HkStreamingMatcher matcher;
  for (Weight w_class : {16, 64, 128}) {
    auto result =
        core::find_class_augmentations(freeze(g), m, w_class, tcfg, {}, matcher, rng);
    Matching work = m;
    Weight realized = 0;
    for (const auto& aug : result.augmentations) {
      ASSERT_TRUE(aug.is_valid_alternating(work));
      Weight gain = aug.gain(work);
      ASSERT_GT(gain, 0);
      realized += aug.apply(work);
    }
    EXPECT_EQ(realized, result.total_gain);
    EXPECT_TRUE(is_valid_matching(work, g));
  }
}

TEST(SingleClass, EmptyMatchingStillFindsSingletons) {
  // With M empty, 2-layer graphs find single heavy edges as augmentations.
  Graph g(4);
  g.add_edge(0, 1, 50);
  g.add_edge(2, 3, 50);
  Matching m(4);
  core::TauConfig tcfg;
  core::ExactMatcher matcher;
  bool found = eventually(20, [&](int seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 900);
    auto result =
        core::find_class_augmentations(freeze(g), m, 64, tcfg, {}, matcher, rng);
    return result.total_gain >= 50;
  });
  EXPECT_TRUE(found);
}

TEST(SingleClass, NoUnmatchedCrossingEdgesMeansNoWork) {
  Graph g(4);
  g.add_edge(0, 1, 10);
  Matching m(4);
  m.add(0, 1, 10);  // every edge matched -> no Y candidates
  core::TauConfig tcfg;
  Rng rng(5);
  core::ExactMatcher matcher;
  auto result =
      core::find_class_augmentations(freeze(g), m, 16, tcfg, {}, matcher, rng);
  EXPECT_TRUE(result.augmentations.empty());
  EXPECT_EQ(result.layered_graphs, 0u);
}

// find_class_augmentations skips the pairs whose L' holds no augmenting
// path, that is whose core is empty. Against the reference, which builds
// and solves every pair with |Y| > 0, on weighted and unit-weight graphs,
// with the empty matching and after 1-3 rounds, over the HK and exact
// black boxes: the same augmentations, gain and layered-graph count, no
// more black-box calls, and exactly solver.core_empty fewer calls. Both
// charge the same cores and candidates, and a skipped pair's empty core
// charges the reference nothing; on top, the search holds one build's
// walk marks at a time, which the reference never charges. So its peak
// lies between the reference's and the reference's plus the most marks of
// one build.
TEST(SingleClass, SkipsOnlyPairsWithoutAugmentingPath) {
  const obs::Counter& core_empty = obs::counter("solver.core_empty");
  std::size_t skipped = 0, solved = 0, found = 0;
  for (int inst = 0; inst < 8; ++inst) {
    Rng gen_rng(static_cast<std::uint64_t>(inst) + 40);
    const bool unit = inst % 2 == 1;
    Graph g = unit ? gen::random_bipartite(50, 50, 400, gen_rng)
                   : gen::erdos_renyi(80, 320, gen_rng);
    g = gen::assign_weights(
        g, unit ? gen::WeightDist::kUnit : gen::WeightDist::kUniform, 100,
        gen_rng);
    const GraphView view = freeze(g);
    Matching m(view.num_vertices());
    core::ReductionConfig cfg;
    core::HkStreamingMatcher round_matcher;
    for (int round = 0; round < inst / 2; ++round) {
      core::improve_matching_once(view, m, cfg, round_matcher, gen_rng);
    }
    for (int shift = 0; shift < 7; ++shift) {
      const Weight w_class =
          std::max<Weight>(1, 7 * view.max_weight() >> shift);
      for (bool exact : {false, true}) {
        core::HkStreamingMatcher hk, ref_hk;
        core::ExactMatcher ex, ref_ex;
        core::UnweightedMatcher& matcher =
            exact ? static_cast<core::UnweightedMatcher&>(ex) : hk;
        core::UnweightedMatcher& ref_matcher =
            exact ? static_cast<core::UnweightedMatcher&>(ref_ex) : ref_hk;
        Rng rng(gen_rng.next());
        Rng ref_rng = rng;
        const std::uint64_t before = core_empty.value();
        const auto got = core::find_class_augmentations(
            view, m, w_class, cfg.tau, {}, matcher, rng);
        const std::uint64_t skips = core_empty.value() - before;
        std::size_t most_marked = 0;
        const auto want = core::reference_find_class_augmentations(
            view, m, w_class, cfg.tau, {}, ref_matcher, ref_rng, most_marked);
        ASSERT_EQ(got.augmentations.size(), want.augmentations.size());
        for (std::size_t i = 0; i < got.augmentations.size(); ++i) {
          EXPECT_EQ(got.augmentations[i].edges, want.augmentations[i].edges);
          EXPECT_EQ(got.augmentations[i].is_cycle,
                    want.augmentations[i].is_cycle);
        }
        EXPECT_EQ(got.total_gain, want.total_gain);
        EXPECT_EQ(got.layered_graphs, want.layered_graphs);
        EXPECT_GE(got.stored_words_peak, want.stored_words_peak);
        EXPECT_LE(got.stored_words_peak,
                  want.stored_words_peak + most_marked);
        ASSERT_LE(matcher.invocations(), ref_matcher.invocations());
        EXPECT_EQ(ref_matcher.invocations() - matcher.invocations(), skips);
        skipped += skips;
        solved += matcher.invocations();
        found += got.augmentations.size();
      }
    }
  }
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(solved, 0u);
  EXPECT_GT(found, 0u);
}

}  // namespace
}  // namespace wmatch
