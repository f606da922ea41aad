#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/tau.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace wmatch {
namespace {

using core::TauConfig;
using core::TauPair;

// The previous pairs_for_values, kept verbatim as the exactness reference:
// every trial builds a TauPair and is checked with is_good_pair, and the
// duplicates are removed by an O(P^2) scan at the end.
std::vector<TauPair> reference_pairs_for_values(
    const std::vector<int>& a_vals_in, const std::vector<int>& b_vals_in,
    const TauConfig& cfg, Rng& rng) {
  using core::is_good_pair;
  const int umax = core::max_units(cfg);
  std::vector<int> a_vals, b_vals;
  for (int a : a_vals_in) {
    if (a >= 1 && a <= umax) a_vals.push_back(a);
  }
  for (int b : b_vals_in) {
    if (b >= 1 && b <= umax) b_vals.push_back(b);
  }
  std::sort(a_vals.begin(), a_vals.end());
  a_vals.erase(std::unique(a_vals.begin(), a_vals.end()), a_vals.end());
  std::sort(b_vals.begin(), b_vals.end());
  b_vals.erase(std::unique(b_vals.begin(), b_vals.end()), b_vals.end());

  std::vector<TauPair> out;
  if (b_vals.empty()) return out;
  std::vector<int> a_ends{0};
  a_ends.insert(a_ends.end(), a_vals.begin(), a_vals.end());

  auto push_if_good = [&](TauPair pair) {
    if (out.size() >= cfg.max_pairs) return false;
    if (is_good_pair(pair, cfg)) out.push_back(std::move(pair));
    return out.size() < cfg.max_pairs;
  };

  if (cfg.max_layers >= 2) {
    for (int b1 : b_vals) {
      for (int a1 : a_ends) {
        for (int a2 : a_ends) {
          if (a1 + a2 >= b1) continue;
          if (!push_if_good({{a1, a2}, {b1}})) return out;
        }
      }
    }
  }

  if (cfg.max_layers >= 3) {
    for (int a2 : a_vals) {
      for (int b1 : b_vals) {
        for (int b2 : b_vals) {
          if (b1 + b2 <= a2) continue;
          if (!push_if_good({{0, a2, 0}, {b1, b2}})) return out;
        }
      }
    }
  }

  for (std::size_t layers = 3; layers <= cfg.max_layers; ++layers) {
    const int k = static_cast<int>(layers) - 1;
    for (int a : a_vals) {
      for (int b : b_vals) {
        if (k * b > umax) continue;
        TauPair interior;
        interior.tau_a.assign(layers, a);
        interior.tau_b.assign(static_cast<std::size_t>(k), b);
        if (!push_if_good(interior)) return out;
        TauPair free_ends = interior;
        free_ends.tau_a.front() = 0;
        free_ends.tau_a.back() = 0;
        if (!push_if_good(std::move(free_ends))) return out;
      }
    }
  }

  auto sample = [&](const std::vector<int>& vals) {
    return vals[rng.next_below(vals.size())];
  };
  if (cfg.max_layers >= 3 && !a_vals.empty()) {
    std::size_t budget =
        cfg.max_pairs > out.size() ? (cfg.max_pairs - out.size()) / 2 : 0;
    for (std::size_t trial = 0; trial < 6 * budget; ++trial) {
      TauPair pair{{sample(a_ends), sample(a_vals), sample(a_ends)},
                   {sample(b_vals), sample(b_vals)}};
      if (is_good_pair(pair, cfg)) {
        out.push_back(std::move(pair));
        if (out.size() >= cfg.max_pairs) break;
      }
    }
  }

  if (cfg.max_layers >= 4 && !a_vals.empty()) {
    std::size_t budget =
        cfg.max_pairs > out.size() ? cfg.max_pairs - out.size() : 0;
    for (std::size_t trial = 0; trial < 6 * budget; ++trial) {
      std::size_t layers = 4 + rng.next_below(cfg.max_layers - 3);
      TauPair pair;
      pair.tau_a.resize(layers);
      pair.tau_b.resize(layers - 1);
      pair.tau_a.front() = sample(a_ends);
      pair.tau_a.back() = sample(a_ends);
      for (std::size_t t = 1; t + 1 < layers; ++t) {
        pair.tau_a[t] = sample(a_vals);
      }
      for (auto& b : pair.tau_b) b = sample(b_vals);
      if (is_good_pair(pair, cfg)) {
        out.push_back(std::move(pair));
        if (out.size() >= cfg.max_pairs) break;
      }
    }
  }

  std::vector<TauPair> dedup;
  dedup.reserve(out.size());
  for (auto& p : out) {
    if (std::find(dedup.begin(), dedup.end(), p) == dedup.end()) {
      dedup.push_back(std::move(p));
    }
  }
  return dedup;
}

TEST(Tau, QuantumFloorsAndClampsToOne) {
  TauConfig cfg;
  cfg.granularity = 0.125;
  EXPECT_EQ(core::quantum(1000, cfg), 125);
  EXPECT_EQ(core::quantum(2, cfg), 1);  // floor would be 0 -> clamp
  EXPECT_THROW(core::quantum(0, cfg), std::invalid_argument);
}

TEST(Tau, GoodPairAcceptsCanonicalExample) {
  TauConfig cfg;
  // 3 layers: a = (1,1,1), b = (2,2): sum b - sum a = 1 >= 1.
  EXPECT_TRUE(core::is_good_pair({{1, 1, 1}, {2, 2}}, cfg));
}

TEST(Tau, GoodPairRejectsArityMismatch) {
  TauConfig cfg;
  EXPECT_FALSE(core::is_good_pair({{1, 1}, {2, 2}}, cfg));          // (B)
  EXPECT_FALSE(core::is_good_pair({{1}, {}}, cfg));                 // (A)
}

TEST(Tau, GoodPairRejectsNegativeGainProfile) {
  TauConfig cfg;
  EXPECT_FALSE(core::is_good_pair({{2, 2, 2}, {3, 3}}, cfg));       // (F)
  EXPECT_TRUE(core::is_good_pair({{0, 3, 0}, {2, 2}}, cfg));        // 4-3=1 ok
}

TEST(Tau, GoodPairInteriorZeroRejected) {
  TauConfig cfg;
  cfg.max_layers = 5;
  EXPECT_FALSE(core::is_good_pair({{1, 0, 1}, {2, 2}}, cfg));       // (D)
}

TEST(Tau, GoodPairBudgetEnforced) {
  TauConfig cfg;
  cfg.granularity = 0.5;
  cfg.slack = 0.0;  // sum b <= 2 units
  EXPECT_TRUE(core::is_good_pair({{0, 0}, {1}}, cfg));
  EXPECT_FALSE(core::is_good_pair({{0, 0}, {3}}, cfg));             // (E)
}

TEST(Tau, GeneratedPairsAllGoodAndUnique) {
  TauConfig cfg;
  cfg.max_pairs = 800;
  Rng rng(1);
  auto pairs = core::generate_good_pairs(cfg, rng);
  EXPECT_GT(pairs.size(), 20u);
  EXPECT_LE(pairs.size(), cfg.max_pairs);
  for (const auto& p : pairs) {
    EXPECT_TRUE(core::is_good_pair(p, cfg));
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t j = i + 1; j < pairs.size(); ++j) {
      ASSERT_FALSE(pairs[i] == pairs[j]);
    }
  }
}

TEST(Tau, GenerationCoversDeepLayers) {
  TauConfig cfg;
  cfg.max_layers = 8;
  Rng rng(2);
  auto pairs = core::generate_good_pairs(cfg, rng);
  ASSERT_FALSE(pairs.empty());
  std::size_t deepest = 0;
  for (const auto& p : pairs) deepest = std::max(deepest, p.num_layers());
  EXPECT_GE(deepest, 6u);
}

TEST(Tau, BudgetCapRespected) {
  TauConfig cfg;
  cfg.max_pairs = 50;
  Rng rng(3);
  auto pairs = core::generate_good_pairs(cfg, rng);
  EXPECT_LE(pairs.size(), 50u);
}

TEST(Tau, InducedPairRoundsCorrectly) {
  // Matched weights round UP, unmatched round DOWN (soundness direction).
  TauPair p = core::induced_pair({5, 9}, {12}, 4);
  EXPECT_EQ(p.tau_a, (std::vector<int>{2, 3}));  // ceil(5/4), ceil(9/4)
  EXPECT_EQ(p.tau_b, (std::vector<int>{3}));     // floor(12/4)
}

TEST(Tau, InducedPairOfProfitableAugmentationIsGood) {
  TauConfig cfg;
  cfg.granularity = 0.1;
  Weight W = 100;
  Weight unit = core::quantum(W, cfg);  // 10
  // Augmentation: remove matched 30, 20; add unmatched 90.
  TauPair p = core::induced_pair({30, 20}, {90}, unit);
  EXPECT_TRUE(core::is_good_pair(p, cfg));
}

TEST(Tau, InducedPairArityChecked) {
  EXPECT_THROW(core::induced_pair({1, 2, 3}, {1}, 1), std::invalid_argument);
  EXPECT_THROW(core::induced_pair({1, 2}, {1}, 0), std::invalid_argument);
}

TEST(Tau, SoundnessInequalityInWeights) {
  // For any good pair, an alternating path respecting the thresholds has
  // positive gain: sum(b)*U - sum(a)*U >= U > 0.
  TauConfig cfg;
  cfg.max_pairs = 600;
  Rng rng(4);
  auto pairs = core::generate_good_pairs(cfg, rng);
  const Weight unit = 7;
  for (const auto& p : pairs) {
    Weight min_gain =
        unit * (std::accumulate(p.tau_b.begin(), p.tau_b.end(), Weight{0}) -
                std::accumulate(p.tau_a.begin(), p.tau_a.end(), Weight{0}));
    EXPECT_GE(min_gain, unit);
  }
}

TEST(Tau, PairsForValuesRestrictedToPresentWeights) {
  TauConfig cfg;
  Rng rng(5);
  // Only matched value 5 and unmatched value 3 exist.
  auto pairs = core::pairs_for_values({5}, {3}, cfg, rng);
  ASSERT_FALSE(pairs.empty());
  for (const auto& p : pairs) {
    EXPECT_TRUE(core::is_good_pair(p, cfg));
    for (int a : p.tau_a) EXPECT_TRUE(a == 0 || a == 5);
    for (int b : p.tau_b) EXPECT_EQ(b, 3);
  }
}

TEST(Tau, PairsForValuesEmptyWhenNoUnmatched) {
  TauConfig cfg;
  Rng rng(6);
  EXPECT_TRUE(core::pairs_for_values({1, 2}, {}, cfg, rng).empty());
}

TEST(Tau, PairsForValuesFindsRepeatedCycleProfile) {
  // The 4-cycle (3,4,3,4) with unit 1: a=3, b=4; the gainful profile needs
  // 5 uniform layers (Section 1.1.2's blow-up). It must be generated.
  TauConfig cfg;
  cfg.max_layers = 6;
  Rng rng(7);
  auto pairs = core::pairs_for_values({3}, {4}, cfg, rng);
  bool found = false;
  for (const auto& p : pairs) {
    if (p.num_layers() == 5 && p.tau_a == std::vector<int>{3, 3, 3, 3, 3} &&
        p.tau_b == std::vector<int>{4, 4, 4, 4}) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// pairs_for_values must return exactly the reference's pairs, in the same
// order, from the same draws: value sets with duplicates and out-of-range
// entries, every cap regime (including a cap hit inside the exhaustive
// priorities, which returns without dedup), and several grid steps. A call
// whose caller discards rng afterwards must return the same pairs too;
// solver.tau_trials tells which sampling priorities it skipped.
TEST(Tau, PairsForValuesMatchesReference) {
  const std::size_t layer_choices[] = {2, 3, 4, 6, 8};
  const std::size_t cap_choices[] = {1, 7, 50, 4000};
  const double granularity_choices[] = {0.125, 0.25, 0.5};
  const obs::Counter& trials = obs::counter("solver.tau_trials");
  Rng gen(2024);
  std::size_t nonempty = 0, capped = 0, with_duplicates = 0;
  std::size_t skipped_both = 0, skipped_5_only = 0;
  for (int input = 0; input < 2000; ++input) {
    TauConfig cfg;
    cfg.max_layers = layer_choices[gen.next_below(5)];
    cfg.max_pairs = cap_choices[gen.next_below(4)];
    cfg.granularity = granularity_choices[gen.next_below(3)];
    const int umax = core::max_units(cfg);
    auto values = [&] {
      std::vector<int> v(gen.next_below(6));
      for (int& x : v) x = static_cast<int>(gen.next_below(umax + 3));
      return v;
    };
    const std::vector<int> a_vals = values();
    const std::vector<int> b_vals = values();
    const std::uint64_t seed = gen.next();

    Rng ref_rng(seed), rng(seed), discarded_rng(seed);
    const auto want = reference_pairs_for_values(a_vals, b_vals, cfg, ref_rng);
    const std::uint64_t before = trials.value();
    const auto got = core::pairs_for_values(a_vals, b_vals, cfg, rng);
    const std::uint64_t exact_trials = trials.value() - before;
    ASSERT_EQ(got, want) << "input " << input;
    ASSERT_EQ(rng.next(), ref_rng.next()) << "input " << input;

    const auto promised = core::pairs_for_values(a_vals, b_vals, cfg,
                                                 discarded_rng, true);
    const std::uint64_t promised_trials =
        trials.value() - before - exact_trials;
    ASSERT_EQ(promised, want) << "input " << input;
    ASSERT_LE(promised_trials, exact_trials) << "input " << input;
    if (promised_trials == 0 && exact_trials > 0) {
      ++skipped_both;
    } else if (promised_trials < exact_trials) {
      ++skipped_5_only;
    }
    if (!want.empty()) ++nonempty;
    if (want.size() == cfg.max_pairs) ++capped;
    for (std::size_t i = 0; i < want.size() && want.size() <= 50; ++i) {
      if (std::count(want.begin(), want.end(), want[i]) > 1) {
        ++with_duplicates;
        break;
      }
    }
  }
  EXPECT_GT(nonempty, 500u);
  EXPECT_GT(capped, 100u);
  EXPECT_GT(with_duplicates, 0u);  // a cap hit inside priorities 1-3
  EXPECT_GT(skipped_both, 0u);
  EXPECT_GT(skipped_5_only, 0u);
}

// On unit weights priorities 1-3 already emit every good pair, so a call
// whose caller discards rng draws nothing at all; the exact stream still
// runs every sampling trial.
TEST(Tau, DiscardedRngSkipsExhaustedSampling) {
  const TauConfig cfg;
  const obs::Counter& pairs_made = obs::counter("solver.tau_pairs");
  const obs::Counter& trials = obs::counter("solver.tau_trials");

  Rng rng(11), copy(11);
  const std::uint64_t pairs_before = pairs_made.value();
  std::uint64_t trials_before = trials.value();
  const auto promised = core::pairs_for_values({1}, {1}, cfg, rng, true);
  EXPECT_EQ(promised.size(), 5u);
  EXPECT_EQ(pairs_made.value() - pairs_before, promised.size());
  EXPECT_EQ(trials.value() - trials_before, 0u);
  EXPECT_EQ(rng.next(), copy.next());

  Rng exact_rng(11), exact_copy(11);
  trials_before = trials.value();
  const auto exact = core::pairs_for_values({1}, {1}, cfg, exact_rng);
  EXPECT_EQ(exact, promised);
  EXPECT_NE(exact_rng.next(), exact_copy.next());
  // Priority 4 alone runs 6 * budget trials, with budget half the room
  // left under the cap by the 6 accepted pairs of priorities 1-3.
  EXPECT_GE(trials.value() - trials_before, 6 * ((cfg.max_pairs - 6) / 2));

  // With 3 layers only priority 4 samples: 3 accepted pairs (one of them
  // a duplicate) leave budget (max_pairs - 3) / 2, and its 1-in-4 good
  // trials stay far below the cap, so all 6 * budget trials run.
  TauConfig shallow;
  shallow.max_layers = 3;
  trials_before = trials.value();
  EXPECT_EQ(core::pairs_for_values({1}, {1}, shallow, rng).size(), 2u);
  EXPECT_EQ(trials.value() - trials_before,
            6 * ((shallow.max_pairs - 3) / 2));
}

}  // namespace
}  // namespace wmatch
