#include "core/tau.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "obs/metrics.h"
#include "util/require.h"

namespace wmatch::core {

int max_units(const TauConfig& cfg) {
  return static_cast<int>(std::ceil((1.0 + cfg.slack) / cfg.granularity));
}

Weight quantum(Weight w_class, const TauConfig& cfg) {
  WMATCH_REQUIRE(w_class >= 1, "class weight must be positive");
  return std::max<Weight>(
      1, static_cast<Weight>(std::floor(cfg.granularity *
                                        static_cast<double>(w_class))));
}

bool is_good_pair(const TauPair& pair, const TauConfig& cfg) {
  const std::size_t layers = pair.tau_a.size();
  if (layers < 2 || layers > cfg.max_layers) return false;          // (A)
  if (pair.tau_b.size() + 1 != layers) return false;                // (B)
  for (int a : pair.tau_a) {
    if (a < 0) return false;                                        // (C)
  }
  for (std::size_t t = 1; t + 1 < layers; ++t) {
    if (pair.tau_a[t] < 1) return false;                            // (D)
  }
  int sum_b = 0;
  for (int b : pair.tau_b) {
    if (b < 1) return false;                                        // (D)
    sum_b += b;
  }
  if (sum_b > max_units(cfg)) return false;                         // (E)
  int sum_a = std::accumulate(pair.tau_a.begin(), pair.tau_a.end(), 0);
  return sum_b - sum_a >= 1;                                        // (F)
}

TauPair induced_pair(const std::vector<Weight>& a_w,
                     const std::vector<Weight>& b_w, Weight unit) {
  WMATCH_REQUIRE(a_w.size() == b_w.size() + 1, "profile arity mismatch");
  WMATCH_REQUIRE(unit >= 1, "unit must be positive");
  TauPair pair;
  pair.tau_a.reserve(a_w.size());
  pair.tau_b.reserve(b_w.size());
  for (Weight w : a_w) {
    // Round up to the closest multiple of the unit.
    pair.tau_a.push_back(static_cast<int>((w + unit - 1) / unit));
  }
  for (Weight w : b_w) {
    // Round down.
    pair.tau_b.push_back(static_cast<int>(w / unit));
  }
  return pair;
}

namespace {

std::vector<int> with_zero(const std::vector<int>& vals) {
  std::vector<int> out{0};
  out.insert(out.end(), vals.begin(), vals.end());
  return out;
}

// Hash and equality over indices into a pair list, for deduplicating it
// in place.
struct PairHash {
  const std::vector<TauPair>* pairs;
  std::size_t operator()(std::size_t i) const {
    const TauPair& p = (*pairs)[i];
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the thresholds
    auto mix = [&h](int x) {
      h = (h ^ static_cast<std::uint32_t>(x)) * 0x100000001b3ULL;
    };
    for (int a : p.tau_a) mix(a);
    for (int b : p.tau_b) mix(b);
    return static_cast<std::size_t>(h);
  }
};

struct PairEq {
  const std::vector<TauPair>* pairs;
  bool operator()(std::size_t i, std::size_t j) const {
    return (*pairs)[i] == (*pairs)[j];
  }
};

std::size_t sat_add(std::size_t x, std::size_t y, std::size_t cap) {
  return std::min(cap, x + y);
}

std::size_t sat_mul(std::size_t x, std::size_t y, std::size_t cap) {
  return x != 0 && y > cap / x ? cap : std::min(cap, x * y);
}

// One more factor of a sum-convolution: next[s] counts the tuples counted
// by `sums`, each extended by one value of `vals` (ascending), whose sum is
// s < sums.size(). Saturates at `cap`.
std::vector<std::size_t> extend(const std::vector<std::size_t>& sums,
                                const std::vector<int>& vals,
                                std::size_t cap) {
  std::vector<std::size_t> next(sums.size(), 0);
  for (std::size_t s = 0; s < sums.size(); ++s) {
    if (sums[s] == 0) continue;
    for (int v : vals) {
      const std::size_t t = s + static_cast<std::size_t>(v);
      if (t >= next.size()) break;
      next[t] = sat_add(next[t], sums[s], cap);
    }
  }
  return next;
}

// good[L], for L in [3, max_layers], is the number of distinct good
// L-layer pairs that priorities 4 and 5 can draw: both ends from a_ends,
// the L - 2 interior tau^A values from a_vals, the L - 1 tau^B values from
// b_vals, kept when (E) sum(b) <= umax and (F) sum(b) - sum(a) >= 1.
// Counts saturate at `cap`.
std::vector<std::size_t> good_tuple_counts(const std::vector<int>& a_ends,
                                           const std::vector<int>& a_vals,
                                           const std::vector<int>& b_vals,
                                           int umax, std::size_t max_layers,
                                           std::size_t cap) {
  // Sums above umax fail (E), and (F) then bounds sum(a) by umax - 1.
  std::vector<std::size_t> a_sums(static_cast<std::size_t>(umax) + 1, 0);
  a_sums[0] = 1;
  std::vector<std::size_t> b_sums = a_sums;
  a_sums = extend(extend(a_sums, a_ends, cap), a_ends, cap);  // two ends
  b_sums = extend(b_sums, b_vals, cap);                       // one gap
  std::vector<std::size_t> good(max_layers + 1, 0);
  for (std::size_t layers = 3; layers <= max_layers; ++layers) {
    a_sums = extend(a_sums, a_vals, cap);
    b_sums = extend(b_sums, b_vals, cap);
    std::size_t below = 0;  // a-tuples whose sum is below sum_b
    for (std::size_t sum_b = 1; sum_b < b_sums.size(); ++sum_b) {
      below = sat_add(below, a_sums[sum_b - 1], cap);
      good[layers] =
          sat_add(good[layers], sat_mul(b_sums[sum_b], below, cap), cap);
    }
  }
  return good;
}

// pairs_for_values without its metrics; `trials` counts the priority-4 and
// priority-5 trials drawn.
std::vector<TauPair> emit_pairs(const std::vector<int>& a_vals_in,
                                const std::vector<int>& b_vals_in,
                                const TauConfig& cfg, Rng& rng,
                                bool rng_discarded, std::size_t& trials) {
  const int umax = max_units(cfg);
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
  const std::vector<int> a_ends = with_zero(a_vals);  // endpoint choices

  auto push_if_good = [&](TauPair pair) {
    if (out.size() >= cfg.max_pairs) return false;
    if (is_good_pair(pair, cfg)) out.push_back(std::move(pair));
    return out.size() < cfg.max_pairs;
  };

  // --- Priority 1: all 2-layer profiles (k = 1). ---
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

  // --- Priority 2: 3-layer profiles with free endpoints (the classic
  // weighted 3-augmentation with unmatched wings). ---
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

  // --- Priority 3: uniform deep profiles (repeated-cycle walks and long
  // uniform paths; endpoints either free or matching the interior). ---
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

  // Past the exhaustive part, keep the first occurrence of each pair
  // (priority 3's 3-layer free-ends profile repeats a priority-2 pair).
  // `seen` holds indices into `out`, so it stores no copy of a pair.
  std::unordered_set<std::size_t, PairHash, PairEq> seen(
      out.size(), PairHash{&out}, PairEq{&out});
  std::size_t kept = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i != kept) out[kept] = std::move(out[i]);
    if (seen.insert(kept).second) ++kept;
  }
  // Accepted pairs so far, duplicates included: the sampling budgets and
  // the cap are counted in these, not in distinct pairs.
  std::size_t raw = out.size();
  out.resize(kept);

  if (a_vals.empty()) return out;  // priorities 4 and 5 need interior values

  // For L >= 3, every L-layer pair out holds lies in the space the sampling
  // priorities draw L-layer trials from, so once out holds as many as that
  // space has good pairs, each further trial is rejected or a duplicate.
  // With the caller's promise such a priority is skipped: priority 5 when
  // all of its layer counts are exhausted, priority 4 only together with it.
  bool skip4 = false, skip5 = false;
  if (rng_discarded && cfg.max_layers >= 3) {
    const std::vector<std::size_t> good_count = good_tuple_counts(
        a_ends, a_vals, b_vals, umax, cfg.max_layers, out.size() + 1);
    std::vector<std::size_t> emitted(cfg.max_layers + 1, 0);
    for (const TauPair& p : out) ++emitted[p.num_layers()];
    auto exhausted = [&](std::size_t layers) {
      WMATCH_ASSERT(emitted[layers] <= good_count[layers]);
      return emitted[layers] == good_count[layers];
    };
    skip5 = true;
    for (std::size_t layers = 4; layers <= cfg.max_layers; ++layers) {
      skip5 = skip5 && exhausted(layers);
    }
    skip4 = skip5 && exhausted(3);
  }

  // Priorities 4 and 5 draw each trial into the scratch arrays `ta`, `tb`,
  // sized once for the deepest profile, and sum it as they draw. Sampled
  // values already satisfy (A)-(D), so a trial is good iff (E) and (F)
  // hold, and only a good trial becomes a TauPair. Every value is drawn
  // through a FixedBound, which draws exactly what next_below would.
  std::vector<int> ta(cfg.max_layers), tb(cfg.max_layers);
  auto good = [umax](int sum_a, int sum_b) {
    return sum_b <= umax && sum_b - sum_a >= 1;
  };
  // Records the good trial ta[0, layers), tb[0, layers - 1); true once the
  // cap is hit.
  auto accept = [&](std::size_t layers) {
    out.push_back({{ta.begin(), ta.begin() + layers},
                   {tb.begin(), tb.begin() + (layers - 1)}});
    WMATCH_ASSERT(is_good_pair(out.back(), cfg));
    if (!seen.insert(out.size() - 1).second) out.pop_back();
    return ++raw >= cfg.max_pairs;
  };
  const FixedBound pick_end(a_ends.size()), pick_a(a_vals.size()),
      pick_b(b_vals.size());

  // --- Priority 4: random samples of the general 3-layer space. ---
  if (cfg.max_layers >= 3 && !skip4) {
    const std::size_t budget =
        cfg.max_pairs > raw ? (cfg.max_pairs - raw) / 2 : 0;
    for (const std::size_t end = trials + 6 * budget; trials < end;) {
      ++trials;
      ta[0] = a_ends[pick_end(rng)];
      ta[1] = a_vals[pick_a(rng)];
      ta[2] = a_ends[pick_end(rng)];
      tb[0] = b_vals[pick_b(rng)];
      tb[1] = b_vals[pick_b(rng)];
      if (good(ta[0] + ta[1] + ta[2], tb[0] + tb[1]) && accept(3)) break;
    }
  }

  // --- Priority 5: random non-uniform deep profiles. ---
  if (cfg.max_layers >= 4 && !skip5) {
    const std::size_t budget = cfg.max_pairs > raw ? cfg.max_pairs - raw : 0;
    const FixedBound pick_layers(cfg.max_layers - 3);
    for (const std::size_t end = trials + 6 * budget; trials < end;) {
      ++trials;
      const std::size_t layers = 4 + pick_layers(rng);
      int sum_a = ta[0] = a_ends[pick_end(rng)];
      sum_a += ta[layers - 1] = a_ends[pick_end(rng)];
      for (std::size_t t = 1; t + 1 < layers; ++t) {
        sum_a += ta[t] = a_vals[pick_a(rng)];
      }
      int sum_b = 0;
      for (std::size_t t = 0; t + 1 < layers; ++t) {
        sum_b += tb[t] = b_vals[pick_b(rng)];
      }
      if (good(sum_a, sum_b) && accept(layers)) break;
    }
  }
  return out;
}

}  // namespace

std::vector<TauPair> pairs_for_values(const std::vector<int>& a_vals,
                                      const std::vector<int>& b_vals,
                                      const TauConfig& cfg, Rng& rng,
                                      bool rng_discarded) {
  static obs::Counter& pairs_counter = obs::counter("solver.tau_pairs");
  static obs::Counter& trials_counter = obs::counter("solver.tau_trials");
  std::size_t trials = 0;
  std::vector<TauPair> out =
      emit_pairs(a_vals, b_vals, cfg, rng, rng_discarded, trials);
  pairs_counter.add(out.size());
  trials_counter.add(trials);
  return out;
}

std::vector<TauPair> generate_good_pairs(const TauConfig& cfg, Rng& rng) {
  const int umax = max_units(cfg);
  std::vector<int> all;
  all.reserve(static_cast<std::size_t>(umax));
  for (int v = 1; v <= umax; ++v) all.push_back(v);
  return pairs_for_values(all, all, cfg, rng);
}

}  // namespace wmatch::core
