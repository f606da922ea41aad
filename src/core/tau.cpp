#include "core/tau.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

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

}  // namespace

std::vector<TauPair> pairs_for_values(const std::vector<int>& a_vals_in,
                                      const std::vector<int>& b_vals_in,
                                      const TauConfig& cfg, Rng& rng) {
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

  // Priorities 4 and 5 draw each trial into the scratch buffers `ta`,
  // `tb`. Sampled values already satisfy (A)-(D), so a trial is good iff
  // (E) and (F) hold, and only an accepted trial becomes a TauPair.
  std::vector<int> ta, tb;
  // Accepts the trial in ta/tb if it is good; true once the cap is hit.
  auto accept = [&]() {
    const int sum_a = std::accumulate(ta.begin(), ta.end(), 0);
    const int sum_b = std::accumulate(tb.begin(), tb.end(), 0);
    if (sum_b > umax || sum_b - sum_a < 1) return false;
    out.push_back({ta, tb});
    WMATCH_ASSERT(is_good_pair(out.back(), cfg));
    if (!seen.insert(out.size() - 1).second) out.pop_back();
    return ++raw >= cfg.max_pairs;
  };
  auto sample = [&](const std::vector<int>& vals) {
    return vals[rng.next_below(vals.size())];
  };

  // --- Priority 4: random samples of the general 3-layer space. ---
  if (cfg.max_layers >= 3 && !a_vals.empty()) {
    const std::size_t budget =
        cfg.max_pairs > raw ? (cfg.max_pairs - raw) / 2 : 0;
    ta.resize(3);
    tb.resize(2);
    for (std::size_t trial = 0; trial < 6 * budget; ++trial) {
      ta[0] = sample(a_ends);
      ta[1] = sample(a_vals);
      ta[2] = sample(a_ends);
      tb[0] = sample(b_vals);
      tb[1] = sample(b_vals);
      if (accept()) break;
    }
  }

  // --- Priority 5: random non-uniform deep profiles. ---
  if (cfg.max_layers >= 4 && !a_vals.empty()) {
    const std::size_t budget = cfg.max_pairs > raw ? cfg.max_pairs - raw : 0;
    for (std::size_t trial = 0; trial < 6 * budget; ++trial) {
      const std::size_t layers = 4 + rng.next_below(cfg.max_layers - 3);
      ta.resize(layers);
      tb.resize(layers - 1);
      ta.front() = sample(a_ends);
      ta.back() = sample(a_ends);
      for (std::size_t t = 1; t + 1 < layers; ++t) ta[t] = sample(a_vals);
      for (int& b : tb) b = sample(b_vals);
      if (accept()) break;
    }
  }
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
