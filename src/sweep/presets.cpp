#include "sweep/presets.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace wmatch::sweep {

namespace {

std::vector<std::uint64_t> seed_range(std::uint64_t base, std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t i = 0; i < count; ++i) seeds[i] = base + i;
  return seeds;
}

/// E1 / Theorem 3.4 — one-pass unweighted matching on random-order
/// streams: the three-branch algorithm vs greedy, cardinality ratios
/// against the exact optimum.
SweepSpec e1_preset() {
  SweepSpec s;
  s.name = "E1";
  s.solvers = {"greedy", "unw-rand-arrival"};
  api::GenSpec er_small;
  er_small.n = 1000;
  er_small.m = 2500;
  api::GenSpec er_large;
  er_large.n = 2000;
  er_large.m = 5000;
  api::GenSpec bip;
  bip.generator = "bipartite";
  bip.n = 2000;
  bip.m = 5000;
  api::GenSpec ba;
  ba.generator = "barabasi_albert";
  ba.n = 2000;
  ba.attach = 2;
  for (api::GenSpec* g : {&er_small, &er_large, &bip, &ba}) {
    g->weights = gen::WeightDist::kUnit;
  }
  s.instances = {er_small, er_large, bip, ba};
  s.seeds = seed_range(1000, 5);
  s.with_optimum = true;
  s.stat_columns = {"augmentations"};
  return s;
}

/// E2 / Theorems 1.1, 3.14 — one-pass weighted matching on random-order
/// streams: Rand-Arr-Matching vs greedy and local-ratio [PS17].
SweepSpec e2_preset() {
  SweepSpec s;
  s.name = "E2";
  s.solvers = {"greedy", "local-ratio", "rand-arrival"};
  api::GenSpec er_uniform;
  er_uniform.n = 1200;
  er_uniform.m = 7200;
  api::GenSpec er_exp = er_uniform;
  er_exp.weights = gen::WeightDist::kExponential;
  api::GenSpec ba;
  ba.generator = "barabasi_albert";
  ba.n = 1200;
  ba.attach = 4;
  ba.weights = gen::WeightDist::kExponential;
  api::GenSpec geo;
  geo.generator = "geometric";
  geo.n = 700;
  geo.radius = 0.08;
  geo.max_weight = 1000;
  s.instances = {er_uniform, er_exp, ba, geo};
  s.seeds = seed_range(2000, 5);
  s.with_optimum = true;
  return s;
}

/// E3 / Lemmas 3.3, 3.15 — semi-streaming memory on random-order
/// streams: the local-ratio stack S and threshold set T of
/// Rand-Arr-Matching hold O(n polylog n) edges w.h.p., far below
/// m = n^1.5. The memory_peak_words column is the stored peak; |S| and
/// |T| ride along as stat columns.
SweepSpec e3_preset() {
  SweepSpec s;
  s.name = "E3";
  s.solvers = {"rand-arrival"};
  for (std::size_t n : {512u, 1024u, 2048u, 4096u, 8192u}) {
    api::GenSpec g;
    g.n = n;
    g.m = static_cast<std::size_t>(
        std::pow(static_cast<double>(n), 1.5));
    g.max_weight = 1 << 20;
    s.instances.push_back(g);
  }
  s.seeds = seed_range(3000, 3);
  s.stat_columns = {"stack_size", "t_size"};
  return s;
}

/// E4 / Theorems 1.2, 4.1 (multipass streaming) — (1-eps) weighted
/// matching in Oe(1) passes: the reduction run to convergence across the
/// eps ladder and instance sizes, ratio against the exact optimum. The
/// realized pass count stays orders of magnitude below the worst-case
/// f(eps) cap and is driven by convergence, not the eps budget (the
/// gain-based stopping rule dominates the fixed iteration count,
/// DESIGN.md §2), while the ratio clears 1-eps at every rung.
SweepSpec e4_preset() {
  SweepSpec s;
  s.name = "E4";
  s.solvers = {"reduction-hk"};
  for (std::size_t n : {256u, 512u, 1024u}) {
    api::GenSpec g;
    g.n = n;
    g.m = 6 * n;
    g.weights = gen::WeightDist::kExponential;
    g.max_weight = 1 << 12;
    s.instances.push_back(g);
  }
  s.epsilons = {0.3, 0.2, 0.1};
  s.seeds = seed_range(4000, 3);
  s.with_optimum = true;
  s.stat_columns = {"iterations", "bb_total_cost"};
  return s;
}

/// E5 / Theorem 1.2 (MPC) — the (1-eps) reduction on the simulated
/// cluster across instance sizes: rounds per iteration and per-machine
/// memory vs n (paper regime: Gamma = m/n machines, S = 24n words).
SweepSpec e5_preset() {
  SweepSpec s;
  s.name = "E5";
  s.solvers = {"reduction-mpc"};
  for (std::size_t n : {256u, 512u, 1024u, 2048u}) {
    api::GenSpec g;
    g.n = n;
    g.m = 8 * n;
    g.max_weight = 1 << 10;
    g.order = api::ArrivalOrder::kAsGenerated;
    s.instances.push_back(g);
  }
  s.epsilons = {0.2};
  s.seeds = {5000};
  s.with_optimum = true;
  s.stat_columns = {"iterations", "machines", "memory_ok"};
  return s;
}

/// The CI perf-regression grid: small and fast, but covering streaming +
/// MPC + offline reduction solvers on random AND adversarial (hard-*)
/// families. Every counter in the emitted BENCH_ci.json is a
/// deterministic function of the seed (and invariant under --threads, now
/// including the parallelized per-class loop), so the gate diffs them
/// exactly against bench/baselines/ci_baseline.json.
SweepSpec ci_preset() {
  SweepSpec s;
  s.name = "ci";
  s.solvers = {"greedy",           "local-ratio",  "rand-arrival",
               "unw-rand-arrival", "reduction-hk", "reduction-mpc",
               "reduction-exact"};
  api::GenSpec er;
  er.n = 200;
  er.m = 800;
  api::GenSpec bip;
  bip.generator = "bipartite";
  bip.n = 200;
  bip.m = 800;
  api::GenSpec trap;
  trap.generator = "hard-greedy-trap";
  trap.n = 128;
  api::GenSpec cycles;
  cycles.generator = "hard-four-cycle";
  cycles.n = 128;
  api::GenSpec long_path;
  long_path.generator = "hard-long-path";
  long_path.n = 96;
  long_path.aug_length = 3;
  s.instances = {er, bip, trap, cycles, long_path};
  s.epsilons = {0.2};
  s.seeds = {1};
  s.with_optimum = true;
  s.stat_columns = {"iterations"};
  return s;
}

/// E6 / Lemma 3.1 — recovering planted 3-augmentations: greedy vs the
/// three-branch streaming algorithm on hard-planted-augs (|M| = n/4 =
/// 2000 planted matchings, wing density beta), cardinality ratios
/// against the planted optimum (no Blossom run: the optimum is known by
/// construction). The bespoke bench_e6 binary wraps this preset and adds
/// the lemma's structural (beta^2/32)|M| witness section on top.
SweepSpec e6_preset() {
  SweepSpec s;
  s.name = "E6";
  s.solvers = {"greedy", "unw-rand-arrival"};
  for (double beta : {0.1, 0.25, 0.5, 1.0}) {
    api::GenSpec g;
    g.generator = "hard-planted-augs";
    g.n = 8000;  // planted_three_augs builds |M| = n/4 matched edges
    g.beta = beta;
    g.weights = gen::WeightDist::kUnit;
    s.instances.push_back(g);
  }
  s.seeds = seed_range(6000, 5);
  s.with_optimum = true;
  s.stat_columns = {"augmentations"};
  return s;
}

/// E7 / Lemma 4.9, Theorem 4.7 — the short-augmentation structure the
/// reduction's per-class loop exploits: (1-eps) reductions across the eps
/// ladder on the E7 instance family (n = 400, m = 2400, exponential
/// weights), ratio vs the exact optimum, with greedy as the baseline the
/// lemma lifts. Exercises the parallelized per-class augmentation path
/// (and Hopcroft-Karp black box) end to end on every run.
SweepSpec e7_preset() {
  SweepSpec s;
  s.name = "E7";
  s.solvers = {"greedy", "reduction-exact", "reduction-hk"};
  api::GenSpec er;
  er.n = 400;
  er.m = 2400;
  er.weights = gen::WeightDist::kExponential;
  er.max_weight = 1 << 12;
  s.instances = {er};
  s.epsilons = {0.4, 0.2, 0.1};
  s.seeds = seed_range(7000, 3);
  s.with_optimum = true;
  s.stat_columns = {"iterations", "classes"};
  return s;
}

/// E8 / Section 1.1.2 — augmenting cycles: the four-cycle family's planted
/// perfect matching can only be improved through cycles, so the layered
/// repeated-cycle walk is what separates the reductions from greedy here.
/// Family sizes map k cycles onto n = 4k vertices; the planted optimum
/// makes ratios exact without a Blossom run. The bespoke bench_e8 binary
/// wraps this preset and adds the path-only ablation
/// (ReductionConfig::enable_cycles = false) on top — that knob is an
/// ablation switch, deliberately not a SolverSpec axis.
SweepSpec e8_preset() {
  SweepSpec s;
  s.name = "E8";
  s.solvers = {"greedy", "reduction-exact", "reduction-hk"};
  for (std::size_t k : {4u, 16u, 64u}) {
    api::GenSpec g;
    g.generator = "hard-four-cycle";
    g.n = 4 * k;
    g.max_weight = 4;  // base 2, gap 2: cycle gain is half the base weight
    s.instances.push_back(g);
  }
  s.epsilons = {0.1};
  s.seeds = seed_range(8000, 3);
  s.stat_columns = {"iterations"};
  return s;
}

/// E9 / Figures 1-2 — the filtering technique across weight regimes:
/// solvers whose augmentation branches rely on tau filtering
/// (rand-arrival, the reductions) vs greedy/local-ratio on uniform,
/// exponential, and polynomial weights (the heavier the tail, the more a
/// weight-oblivious augmentation can lose). The bespoke bench_e9 binary
/// wraps this preset and adds the direct Wgt-Aug-Paths
/// filtered-vs-unfiltered ablation (WgtAugPathsConfig::filtering = false).
SweepSpec e9_preset() {
  SweepSpec s;
  s.name = "E9";
  s.solvers = {"greedy", "local-ratio", "rand-arrival", "reduction-hk"};
  for (gen::WeightDist dist :
       {gen::WeightDist::kUniform, gen::WeightDist::kExponential,
        gen::WeightDist::kPolynomial}) {
    api::GenSpec g;
    g.n = 600;
    g.m = 4800;
    g.weights = dist;
    g.max_weight = 1 << 12;
    s.instances.push_back(g);
  }
  s.epsilons = {0.2};
  s.seeds = seed_range(9000, 3);
  s.with_optimum = true;
  return s;
}

/// E10 / Section 4.3 — layer depth vs augmentation length: the
/// hard-long-path family plants augmentations of length 2L+1, so the
/// reductions (whose layered graphs walk up to max_layers layers) recover
/// the planted optimum while greedy strands every unit. The family plants
/// its optimum, so ratios are exact without a Blossom run. The bespoke
/// bench_e10 binary wraps this preset and adds the direct max_layers
/// ablation (TauConfig::max_layers is a config knob, deliberately not a
/// SolverSpec axis).
SweepSpec e10_preset() {
  SweepSpec s;
  s.name = "E10";
  s.solvers = {"greedy", "reduction-exact", "reduction-hk"};
  for (std::size_t aug_length : {1u, 2u, 3u}) {
    api::GenSpec g;
    g.generator = "hard-long-path";
    g.n = 96;
    g.aug_length = aug_length;
    s.instances.push_back(g);
  }
  s.epsilons = {0.2};
  s.seeds = seed_range(10000, 3);
  s.stat_columns = {"iterations"};
  return s;
}

/// E11 / Section 3.2 — local-ratio stack growth: the Paz-Schwartzman
/// baseline is a 1/2-approximation on any order, but its stack S stays
/// O(n polylog n) only on random-order streams. Each instance family
/// appears twice — random and adversarial (increasing-weight) order — so
/// the stack_size column shows the blow-up directly. The bespoke
/// bench_e11 binary wraps this preset and adds the normalized growth
/// columns (|S|/(n log n), |S|/m) over a larger size ladder.
SweepSpec e11_preset() {
  SweepSpec s;
  s.name = "E11";
  s.solvers = {"local-ratio"};
  for (std::size_t n : {256u, 512u, 1024u}) {
    for (api::ArrivalOrder order :
         {api::ArrivalOrder::kRandom, api::ArrivalOrder::kIncreasingWeight}) {
      api::GenSpec g;
      g.n = n;
      g.m = 16 * n;
      g.max_weight = 1 << 20;
      g.order = order;
      s.instances.push_back(g);
    }
  }
  s.seeds = seed_range(11000, 3);
  s.with_optimum = true;
  s.stat_columns = {"stack_size"};
  return s;
}

/// E12 / Theorem 1.1's random-arrival assumption — arrival-order
/// sensitivity through the registry: Rand-Arr-Matching (with greedy and
/// local-ratio as order-robust baselines) on the E12 instance family
/// (n = 800, m = 6400, exponential weights) streamed in random,
/// clustered, and adversarial increasing-weight order. The bespoke
/// bench_e12 binary wraps this preset and adds the bounded local-shuffle
/// window ladder (gen::locally_shuffled_stream is a stream transform,
/// deliberately not a GenSpec axis).
SweepSpec e12_preset() {
  SweepSpec s;
  s.name = "E12";
  s.solvers = {"greedy", "local-ratio", "rand-arrival"};
  for (api::ArrivalOrder order :
       {api::ArrivalOrder::kRandom, api::ArrivalOrder::kClustered,
        api::ArrivalOrder::kIncreasingWeight}) {
    api::GenSpec g;
    g.n = 800;
    g.m = 6400;
    g.weights = gen::WeightDist::kExponential;
    g.max_weight = 1 << 12;
    g.order = order;
    s.instances.push_back(g);
  }
  s.seeds = seed_range(12000, 3);
  s.with_optimum = true;
  s.stat_columns = {"stack_size", "t_size"};
  return s;
}

/// E13 / DESIGN.md §3.3 — the epsilon ladder of the substituted
/// discretization: the multipass reduction across eps on the E13 family
/// (n = 400, m = 2400, exponential weights), ratio vs the exact optimum.
/// The bespoke bench_e13 binary wraps this preset and adds the direct
/// granularity x tau-pair-budget ablation grid (TauConfig::granularity /
/// max_pairs are config knobs, deliberately not SolverSpec axes).
SweepSpec e13_preset() {
  SweepSpec s;
  s.name = "E13";
  s.solvers = {"reduction-hk"};
  api::GenSpec er;
  er.n = 400;
  er.m = 2400;
  er.weights = gen::WeightDist::kExponential;
  er.max_weight = 1 << 12;
  s.instances = {er};
  s.epsilons = {0.25, 0.15, 0.1};
  s.seeds = seed_range(13000, 3);
  s.with_optimum = true;
  s.stat_columns = {"iterations"};
  return s;
}

}  // namespace

const std::vector<std::string>& preset_names() {
  static const std::vector<std::string> names = {
      "ci", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
      "e11", "e12", "e13"};
  return names;
}

bool is_known_preset(const std::string& name) {
  const auto& names = preset_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

SweepSpec preset(const std::string& name) {
  if (name == "ci") return ci_preset();
  if (name == "e1") return e1_preset();
  if (name == "e2") return e2_preset();
  if (name == "e3") return e3_preset();
  if (name == "e4") return e4_preset();
  if (name == "e5") return e5_preset();
  if (name == "e6") return e6_preset();
  if (name == "e7") return e7_preset();
  if (name == "e8") return e8_preset();
  if (name == "e9") return e9_preset();
  if (name == "e10") return e10_preset();
  if (name == "e11") return e11_preset();
  if (name == "e12") return e12_preset();
  if (name == "e13") return e13_preset();
  WMATCH_REQUIRE(false,
                 "unknown bench preset '" + name +
                     "' (known: ci, e1, e2, e3, e4, e5, e6, e7, e8, e9, "
                     "e10, e11, e12, e13)");
  return {};  // unreachable
}

}  // namespace wmatch::sweep
