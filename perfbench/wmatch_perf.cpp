// Benchmark program: times the wmatch library's layers from outside, by
// calling each layer's public functions. Nothing in the library is
// instrumented for it.
//
//   wmatch_perf solver WORKLOAD SEED SECONDS TRACE
//       WORKLOAD is weighted-er or unit-bipartite, TRACE is 0 or 1.
//       Prints one JSON object: {"correct", "attempted", "failed",
//       "metrics": {name: {"value", "unit"}}, "samples": {name: count}}.
//   wmatch_perf expect TEMPLATES.jsonl
//       One JSON line per job template: the counters, matching and Blossom
//       optimum of a local api::solve of that job, for checking what the
//       server answers.
//
// perfbench/run.py builds this and renders its output; perfbench/README.md
// defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "core/decompose.h"
#include "core/layered_graph.h"
#include "core/main_alg.h"
#include "core/matcher.h"
#include "core/single_class.h"
#include "core/tau.h"
#include "graph/augmentation.h"
#include "runtime/runtime.h"
#include "service/jobfile.h"
#include "util/json.h"

namespace {

using namespace wmatch;
using Clock = std::chrono::steady_clock;

constexpr double kEpsilon = 0.1;
// Solver threads (fewer if the host has fewer). On a 4-CPU host shared
// with other tenants, 4 threads made weighted-er's median solve time vary
// by 29% between runs; 2 keep the class-parallel path and vary less.
constexpr std::size_t kThreads = 2;
constexpr std::size_t kSetupReps = 9;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

template <typename T>
double median(std::vector<T> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? static_cast<double>(v[h])
                      : (static_cast<double>(v[h - 1]) + v[h]) / 2.0;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Result document ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
  void print() const {
    std::cout << "{\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << attempted << ",\"failed\":" << failed
              << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      std::cout << (i ? "," : "") << '"' << m.name
                << "\":{\"value\":" << util::json_number(m.value)
                << ",\"unit\":\"" << m.unit << "\"}";
    }
    std::cout << "},\"samples\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::cout << (i ? "," : "") << '"' << metrics[i].name
                << "\":" << metrics[i].samples;
    }
    std::cout << "}}\n";
  }
};

// ---- Workloads ----

/// The solver workloads. Instance j of seed S is `wmatch_cli solve
/// --algo=reduction-hk --seed=S*1000+j` with the flags below, so any single
/// solve can be reproduced from the command line.
struct Workload {
  api::GenSpec gen;
  std::string reference;  ///< exact solver the ratio is taken against
  /// Instances built (and timed) in setup; enough that setup_s is well
  /// above a millisecond.
  std::size_t setup_instances;
};

Workload find_workload(const std::string& name) {
  Workload w;
  if (name == "weighted-er") {
    w.gen.generator = "erdos_renyi";
    w.gen.n = 80;
    w.gen.m = 320;
    w.gen.weights = gen::WeightDist::kUniform;
    w.reference = "exact-blossom";
    w.setup_instances = 160;
  } else if (name == "unit-bipartite") {
    w.gen.generator = "bipartite";
    w.gen.n = 5000;
    w.gen.m = 25000;
    w.gen.weights = gen::WeightDist::kUnit;
    w.reference = "exact-hk";  // unit weights: weight == cardinality
    w.setup_instances = 16;
  } else {
    throw std::invalid_argument("unknown solver workload: " + name);
  }
  return w;
}

std::uint64_t instance_seed(std::uint64_t seed, std::size_t j) {
  return seed * 1000 + j;
}

api::GenSpec instance_gen(const Workload& w, std::uint64_t seed,
                          std::size_t j) {
  api::GenSpec gen = w.gen;
  gen.seed = instance_seed(seed, j);
  return gen;
}

std::size_t solver_threads() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(kThreads, hw);
}

api::SolverSpec solver_spec(std::uint64_t seed, std::size_t j) {
  api::SolverSpec spec;
  spec.epsilon = kEpsilon;
  spec.seed = instance_seed(seed, j);
  spec.runtime.num_threads = solver_threads();
  return spec;
}

/// Checks a matching against the graph without trusting Matching's own
/// bookkeeping: every edge exists in g with its weight, no vertex is
/// covered twice, and size and weight add up.
bool valid_matching(const GraphView& g, const Matching& m) {
  std::vector<char> covered(g.num_vertices(), 0);
  Weight total = 0;
  std::size_t count = 0;
  for (const Edge& e : m.edges()) {
    if (e.u >= g.num_vertices() || e.v >= g.num_vertices() || e.u == e.v ||
        covered[e.u] || covered[e.v]) {
      return false;
    }
    covered[e.u] = covered[e.v] = 1;
    const auto nbrs = g.neighbors(e.u);
    const auto weights = g.incident_weights(e.u);
    bool found = false;
    for (std::size_t k = 0; k < nbrs.size() && !found; ++k) {
      found = nbrs[k] == e.v && weights[k] == e.w;
    }
    if (!found) return false;
    total += e.w;
    ++count;
  }
  return count == m.size() && total == m.weight();
}

bool same_counters(const api::CostReport& a, const api::CostReport& b) {
  return a.passes == b.passes && a.rounds == b.rounds &&
         a.memory_peak_words == b.memory_peak_words &&
         a.communication_words == b.communication_words &&
         a.bb_invocations == b.bb_invocations &&
         a.bb_max_invocation_cost == b.bb_max_invocation_cost;
}

/// One timed solve with its output checks. A solve that throws or returns
/// an invalid matching counts as failed. The (1-eps) quality target is
/// checked on the run's median ratio: single instances may fall short
/// (the tau-pair family is a practical subset of the paper's, DESIGN.md
/// §3.3).
struct CheckedSolve {
  api::SolveResult result;
  double ms = 0.0;
  double ratio = 0.0;
  bool ok = false;
};

CheckedSolve checked_solve(const Workload& w, const api::Instance& inst,
                           const api::SolverSpec& spec, Report& rep) {
  CheckedSolve out;
  ++rep.attempted;
  try {
    const api::Solver solver("reduction-hk");
    const auto t0 = Clock::now();
    out.result = solver.solve(inst, spec);
    out.ms = ms_since(t0);
    // The reference is outside the timed region.
    const api::SolveResult ref = api::solve(w.reference, inst);
    const double opt = static_cast<double>(ref.matching.weight());
    out.ratio = opt > 0.0 ? out.result.matching.weight() / opt : 1.0;
    out.ok = valid_matching(inst.graph, out.result.matching) &&
             valid_matching(inst.graph, ref.matching) && out.ratio <= 1.0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: solve threw: " << e.what() << "\n";
  }
  if (!out.ok) ++rep.failed;
  rep.check(out.ok, "instance seed " + std::to_string(spec.seed) +
                        ": solve failed or returned an invalid matching");
  return out;
}

// ---- Timed run (trace 0): end-to-end metrics ----

/// Setup: generation + CSR freeze of the run's first setup_instances
/// instances. Appends the time it took to setup_ms.
std::vector<api::Instance> build_setup_set(const Workload& w,
                                           std::uint64_t seed,
                                           std::vector<double>& setup_ms) {
  std::vector<api::Instance> set;
  const auto t0 = Clock::now();
  for (std::size_t j = 0; j < w.setup_instances; ++j) {
    set.push_back(api::generate_instance(instance_gen(w, seed, j)));
  }
  setup_ms.push_back(ms_since(t0));
  return set;
}

void run_timed(const Workload& w, std::uint64_t seed, double seconds,
               Report& rep) {
  // setup_s is the median of kSetupReps setup builds. The host's speed
  // drifts over seconds, so the builds are spread evenly over the run
  // instead of all coming first; only the first one's instances are used.
  std::vector<double> setup_ms;
  std::vector<api::Instance> set = build_setup_set(w, seed, setup_ms);
  const auto setup_due = [&] {
    return setup_ms.size() * seconds * 1000.0 / kSetupReps;
  };

  // Warm-up: one untimed solve of instance 0 fills the thread pool and the
  // allocator; its timed solve must reproduce the counters. Then each
  // instance is solved once, in order, until `seconds` of solving is timed;
  // instances past the setup set are generated outside the timed region.
  const api::CostReport warm =
      api::Solver("reduction-hk").solve(set[0], solver_spec(seed, 0)).cost;
  std::vector<double> solve_ms, ratios, passes, words;
  double busy_ms = 0.0;
  for (std::size_t j = 0; busy_ms < seconds * 1000.0 || j < 3; ++j) {
    const api::Instance inst =
        j < set.size() ? std::move(set[j])
                       : api::generate_instance(instance_gen(w, seed, j));
    const CheckedSolve s = checked_solve(w, inst, solver_spec(seed, j), rep);
    if (!s.ok) {
      if (rep.failed >= 3) break;  // a failing solver may never use the time
      continue;
    }
    if (j == 0) {
      rep.check(same_counters(warm, s.result.cost),
                "repeated solve of instance 0 changed its counters");
    }
    busy_ms += s.ms;
    solve_ms.push_back(s.ms);
    ratios.push_back(s.ratio);
    passes.push_back(static_cast<double>(s.result.cost.passes));
    words.push_back(static_cast<double>(s.result.cost.memory_peak_words));
    if (setup_ms.size() < kSetupReps && busy_ms >= setup_due()) {
      build_setup_set(w, seed, setup_ms);
    }
  }
  while (setup_ms.size() < kSetupReps) build_setup_set(w, seed, setup_ms);
  rep.add("setup_s", median(setup_ms) / 1000.0, "s", setup_ms.size());
  const double rss = peak_rss_mb();
  const std::size_t n = solve_ms.size();
  const double quality = median(ratios);
  rep.check(quality >= 1.0 - kEpsilon,
            "median weight ratio " + std::to_string(quality) +
                " below 1-eps");
  rep.add("solve_s", median(solve_ms) / 1000.0, "s", n);
  rep.add("latency_p50_ms", median(solve_ms), "ms", n);
  rep.add("latency_p95_ms", percentile(solve_ms, 95), "ms", n);
  rep.add("weight_ratio", quality, "ratio", n);
  // A mean: pass counts take few distinct values, and their median jumps
  // between them from seed to seed.
  rep.add("model_cost", mean(passes), "passes", n);
  rep.add("memory_peak_words", median(words), "words", n);
  rep.add("peak_rss_mb", rss, "MB", 1);
  rep.add("ok_share", ratio(rep.attempted - rep.failed, rep.attempted),
          "ratio", rep.attempted);
}

// ---- Traced run (trace 1): per-layer metrics ----

/// Timing decorator for the black box. It wraps the real matcher, forwards
/// forks and merges, and re-charges the inner matcher's cost delta per
/// call, so every counter the reduction reports is what the unwrapped
/// matcher would report. Forks time their own calls; merge_class runs at
/// the round barrier, serially, so the fold needs no lock.
class TimingMatcher final : public core::UnweightedMatcher {
 public:
  explicit TimingMatcher(std::unique_ptr<core::UnweightedMatcher> inner)
      : inner_(std::move(inner)) {}

  Matching solve(const GraphView& g, const std::vector<char>& side,
                 double delta) override {
    const std::size_t cost_before = inner_->total_cost();
    const auto t0 = Clock::now();
    Matching m = inner_->solve(g, side, delta);
    busy_ms_ += ms_since(t0);
    lprime_vertices_.push_back(g.num_vertices());
    charge_invocation(inner_->total_cost() - cost_before);
    return m;
  }

  std::unique_ptr<core::UnweightedMatcher> fork_for_class(
      std::uint64_t seed, runtime::Arena* scratch) override {
    auto inner = inner_->fork_for_class(seed, scratch);
    if (!inner) return nullptr;
    return std::make_unique<TimingMatcher>(std::move(inner));
  }

  void merge_class(const core::UnweightedMatcher& sub) override {
    UnweightedMatcher::merge_class(sub);
    const auto& t = static_cast<const TimingMatcher&>(sub);
    inner_->merge_class(*t.inner_);
    busy_ms_ += t.busy_ms_;
    lprime_vertices_.insert(lprime_vertices_.end(), t.lprime_vertices_.begin(),
                            t.lprime_vertices_.end());
  }

  double busy_ms() const { return busy_ms_; }
  const std::vector<std::size_t>& lprime_vertices() const {
    return lprime_vertices_;
  }

 private:
  std::unique_ptr<core::UnweightedMatcher> inner_;
  double busy_ms_ = 0.0;
  std::vector<std::size_t> lprime_vertices_;
};

/// The class ladder core::maximum_weight_matching builds (main_alg.cpp);
/// its length is cross-checked against MainAlgResult::classes.
std::vector<Weight> class_ladder(const GraphView& g,
                                 const core::ReductionConfig& cfg) {
  const Weight max_w = g.max_weight();
  if (max_w <= 0) return {};
  Weight min_w = max_w;
  for (const Edge& e : g.edges()) min_w = std::min(min_w, e.w);
  const double bottom = std::max(1.0, static_cast<double>(min_w));
  std::vector<Weight> ladder;
  for (double w = static_cast<double>(max_w) *
                  static_cast<double>(cfg.tau.max_layers + 1);
       w >= bottom && ladder.size() < cfg.max_classes; w /= cfg.class_base) {
    ladder.push_back(static_cast<Weight>(std::llround(w)));
  }
  return ladder;
}

/// Single-thread phase split of one class search.
struct ClassPhases {
  double parametrize_ms = 0.0;  ///< bipartition + crossing + bucketing
  double pairs_ms = 0.0;        ///< pairs_for_values
  double layered_ms = 0.0;      ///< build_layered_graph
  double bb_ms = 0.0;           ///< black-box solve
  double select_ms = 0.0;       ///< symmetric difference .. select_disjoint
  std::size_t pairs = 0;
  std::size_t empty_builds = 0;
  std::size_t layered_graphs = 0;  ///< non-empty builds
  Weight total_gain = 0;

  double total_ms() const {
    return parametrize_ms + pairs_ms + layered_ms + bb_ms + select_ms;
  }
};

/// Replays core::find_class_augmentations (single_class.cpp, one
/// parametrization, cycles enabled) through the public functions it
/// calls, timing each phase. `build_vertices` receives |V(L')| of every
/// build. The caller cross-checks layered_graphs and total_gain against the
/// real function called with the same class seed.
ClassPhases replay_class(const GraphView& g, const Matching& m,
                         Weight w_class, const core::ReductionConfig& cfg,
                         std::uint64_t class_seed,
                         std::vector<std::size_t>& build_vertices) {
  const runtime::RuntimeConfig one_thread;
  ClassPhases p;
  Rng rng(class_seed);
  core::HkStreamingMatcher matcher(one_thread);
  std::vector<Augmentation> candidates;

  auto lap = Clock::now();
  auto charge = [&lap](double& phase) {
    const auto now = Clock::now();
    phase += std::chrono::duration<double, std::milli>(now - lap).count();
    lap = now;
  };

  const core::Parametrization par =
      core::random_parametrization(g.num_vertices(), rng);
  const core::CrossingEdges crossing = core::crossing_edges(g, m, par);
  if (crossing.unmatched.empty()) {
    charge(p.parametrize_ms);
    return p;
  }
  const core::BucketedEdges buckets = core::bucket_edges(
      crossing, core::quantum(w_class, cfg.tau), core::max_units(cfg.tau));
  charge(p.parametrize_ms);
  const std::vector<core::TauPair> pairs = core::pairs_for_values(
      buckets.matched_values(), buckets.unmatched_values(), cfg.tau, rng);
  p.pairs = pairs.size();
  charge(p.pairs_ms);

  for (const core::TauPair& pair : pairs) {
    core::LayeredGraph lg = core::build_layered_graph(
        buckets, m, par, pair, g.num_vertices(), one_thread);
    build_vertices.push_back(lg.lprime.num_vertices());
    charge(p.layered_ms);
    if (lg.num_between_edges == 0) {
      ++p.empty_builds;
      continue;
    }
    ++p.layered_graphs;
    const Matching mprime =
        matcher.solve(lg.lprime, lg.side, cfg.effective_delta());
    charge(p.bb_ms);

    for (Augmentation& comp : symmetric_difference_components(mprime, lg.ml)) {
      if (comp.is_cycle) continue;
      std::size_t in_mprime = 0;
      for (const Edge& e : comp.edges) in_mprime += mprime.contains(e);
      if (2 * in_mprime <= comp.edges.size()) continue;
      std::vector<Edge> walk;
      walk.reserve(comp.edges.size());
      for (const Edge& e : comp.edges) {
        walk.push_back({lg.original[e.u], lg.original[e.v], e.w});
      }
      Augmentation best;
      Weight best_gain = 0;
      for (Augmentation& piece : core::decompose_walk(walk)) {
        if (!piece.is_valid_alternating(m)) continue;
        const Weight gain = piece.gain(m);
        if (gain > best_gain) {
          best_gain = gain;
          best = std::move(piece);
        }
      }
      if (best_gain > 0) candidates.push_back(std::move(best));
    }
    charge(p.select_ms);
  }

  std::vector<std::pair<Weight, std::size_t>> order;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    order.emplace_back(candidates[i].gain(m), i);
  }
  std::stable_sort(
      order.begin(), order.end(),
      [](const auto& x, const auto& y) { return x.first > y.first; });
  std::vector<Augmentation> sorted;
  for (const auto& entry : order) {
    sorted.push_back(std::move(candidates[entry.second]));
  }
  for (std::size_t idx : select_disjoint(sorted, m)) {
    p.total_gain += sorted[idx].gain(m);
  }
  charge(p.select_ms);
  return p;
}

void run_traced(const Workload& w, std::uint64_t seed, double seconds,
                Report& rep) {
  const std::size_t threads = solver_threads();
  core::ReductionConfig cfg;
  cfg.epsilon = kEpsilon;
  cfg.runtime.num_threads = threads;
  core::SingleClassOptions class_opts;
  class_opts.delta = cfg.effective_delta();
  class_opts.enable_cycles = cfg.enable_cycles;
  class_opts.parametrizations = cfg.parametrizations;

  std::vector<double> gen_ms, round_ms, imbalance;
  std::vector<std::size_t> build_vertices, bb_vertices;
  double plain_ms = 0.0, traced_ms = 0.0, class_ms = 0.0, bb_busy_ms = 0.0;
  double rounds = 0.0, bb_calls = 0.0;
  ClassPhases sum;
  std::size_t solves = 0;

  // Warm-up, as in the timed run, so the overhead ratio compares warm runs.
  (void)api::Solver("reduction-hk")
      .solve(api::generate_instance(instance_gen(w, seed, 0)),
             solver_spec(seed, 0));
  const auto start = Clock::now();
  for (std::size_t j = 0; j == 0 || ms_since(start) < seconds * 1000.0; ++j) {
    auto t0 = Clock::now();
    const api::Instance inst =
        api::generate_instance(instance_gen(w, seed, j));
    gen_ms.push_back(ms_since(t0));
    const api::SolverSpec spec = solver_spec(seed, j);

    // The untraced run through the facade, and the same solve with the
    // timing decorator as the black box. They swap order every instance so
    // neither always runs first on a freshly built instance.
    CheckedSolve plain;
    TimingMatcher timed(
        std::make_unique<core::HkStreamingMatcher>(cfg.runtime));
    core::MainAlgResult r;
    auto run_decorated = [&] {
      Rng rng(spec.seed);
      const auto t = Clock::now();
      r = core::maximum_weight_matching(inst.graph, cfg, timed, rng);
      traced_ms += ms_since(t);
    };
    if (j % 2) run_decorated();
    plain = checked_solve(w, inst, spec, rep);
    if (j % 2 == 0) run_decorated();
    plain_ms += plain.ms;
    ++solves;
    const api::CostReport& c = plain.result.cost;
    rep.check(r.bb_invocations == c.bb_invocations &&
                  timed.max_invocation_cost() == c.bb_max_invocation_cost &&
                  r.parallel_model_cost == c.passes &&
                  r.memory_peak_words == c.memory_peak_words &&
                  static_cast<double>(r.iterations) ==
                      plain.result.stat("iterations") &&
                  static_cast<double>(r.bb_total_cost) ==
                      plain.result.stat("bb_total_cost") &&
                  r.matching.weight() == plain.result.matching.weight(),
              "decorated solve's counters differ from the api run");
    rounds += static_cast<double>(r.iterations);
    bb_calls += static_cast<double>(timed.invocations());
    bb_busy_ms += timed.busy_ms();
    bb_vertices.insert(bb_vertices.end(), timed.lprime_vertices().begin(),
                       timed.lprime_vertices().end());

    // The same solve again, driven round by round the way
    // maximum_weight_matching drives it (round budget, stall rule), so
    // every round's input matching is replayed class by class.
    const std::vector<Weight> ladder = class_ladder(inst.graph, cfg);
    rep.check(ladder.size() == r.classes, "class ladder length differs");
    core::HkStreamingMatcher round_matcher(cfg.runtime);
    Matching m(inst.num_vertices());
    Rng round_rng(spec.seed);
    const auto max_rounds =
        static_cast<std::size_t>(std::ceil(8.0 / cfg.epsilon));
    std::size_t stalls = 0, it = 0;
    for (; it < max_rounds && stalls < cfg.stall_patience; ++it) {
      const Matching input = m;
      const std::uint64_t round_base = Rng(round_rng).next();
      t0 = Clock::now();
      const Weight gain = core::improve_matching_once(
          inst.graph, m, cfg, round_matcher, round_rng);
      round_ms.push_back(ms_since(t0));
      stalls = gain == 0 ? stalls + 1 : 0;

      double max_class = 0.0, round_class = 0.0;
      for (std::size_t i = 0; i < ladder.size(); ++i) {
        const std::uint64_t class_seed = runtime::task_seed(round_base, 2 * i);
        core::HkStreamingMatcher class_matcher;
        Rng class_rng(class_seed);
        t0 = Clock::now();
        const core::SingleClassResult real = core::find_class_augmentations(
            inst.graph, input, ladder[i], cfg.tau, class_opts, class_matcher,
            class_rng);
        const double ms = ms_since(t0);
        const ClassPhases p = replay_class(inst.graph, input, ladder[i], cfg,
                                           class_seed, build_vertices);
        rep.check(p.layered_graphs == real.layered_graphs &&
                      p.total_gain == real.total_gain,
                  "class replay differs from find_class_augmentations");
        max_class = std::max(max_class, ms);
        round_class += ms;
        sum.parametrize_ms += p.parametrize_ms;
        sum.pairs_ms += p.pairs_ms;
        sum.layered_ms += p.layered_ms;
        sum.bb_ms += p.bb_ms;
        sum.select_ms += p.select_ms;
        sum.pairs += p.pairs;
        sum.empty_builds += p.empty_builds;
        sum.layered_graphs += p.layered_graphs;
      }
      class_ms += round_class;
      if (round_class > 0.0) {
        imbalance.push_back(max_class * static_cast<double>(ladder.size()) /
                            round_class);
      }
    }
    rep.check(it == r.iterations && m.weight() == r.matching.weight(),
              "round-by-round solve differs from maximum_weight_matching");
  }
  const double per_solve = 1.0 / static_cast<double>(solves);
  const std::size_t builds = sum.empty_builds + sum.layered_graphs;

  rep.add("gen.instance_ms", median(gen_ms), "ms", gen_ms.size());
  rep.add("main.rounds", rounds * per_solve, "count", solves);
  rep.add("main.round_ms", median(round_ms), "ms", round_ms.size());
  rep.add("runtime.class_imbalance", median(imbalance), "ratio",
          imbalance.size());
  rep.add("runtime.parallel_efficiency",
          ratio(class_ms, static_cast<double>(threads) * plain_ms), "ratio",
          solves);
  rep.add("class.parametrize_ms", sum.parametrize_ms * per_solve, "ms",
          solves);
  rep.add("class.phase_coverage", ratio(sum.total_ms(), class_ms), "ratio",
          solves);
  rep.add("tau.pairs", static_cast<double>(sum.pairs) * per_solve, "count",
          solves);
  rep.add("tau.pairs_ms", sum.pairs_ms * per_solve, "ms", solves);
  rep.add("layered.builds", static_cast<double>(builds) * per_solve, "count",
          solves);
  rep.add("layered.empty_share",
          ratio(static_cast<double>(sum.empty_builds),
                static_cast<double>(builds)),
          "ratio", builds);
  rep.add("layered.build_ms", sum.layered_ms * per_solve, "ms", solves);
  rep.add("layered.vertices_p50", median(build_vertices), "count",
          build_vertices.size());
  rep.add("bb.calls", bb_calls * per_solve, "count", solves);
  rep.add("bb.busy_ms", bb_busy_ms * per_solve, "ms", solves);
  rep.add("bb.busy_ms_1t", sum.bb_ms * per_solve, "ms", solves);
  rep.add("bb.lprime_vertices_p50", median(bb_vertices), "count",
          bb_vertices.size());
  rep.add("select.ms", sum.select_ms * per_solve, "ms", solves);
  rep.add("obs.trace_overhead", ratio(traced_ms, plain_ms), "ratio", solves);
}

int run_solver(int argc, char** argv) {
  if (argc != 6) throw std::invalid_argument("solver: expected 4 arguments");
  const Workload w = find_workload(argv[2]);
  const std::uint64_t seed = std::stoull(argv[3]);
  const double seconds = std::stod(argv[4]);
  const bool trace = std::string(argv[5]) == "1";
  Report rep;
  if (trace) {
    run_traced(w, seed, seconds, rep);
  } else {
    run_timed(w, seed, seconds, rep);
  }
  rep.print();
  return 0;
}

// ---- Expected answers for the serve templates ----

int run_expect(int argc, char** argv) {
  if (argc != 3) throw std::invalid_argument("expect: expected a file");
  std::ifstream in(argv[2]);
  if (!in) throw std::runtime_error(std::string("cannot read ") + argv[2]);
  std::string line;
  std::size_t line_no = 0, index = 0;
  while (std::getline(in, line)) {
    service::JobSpec job;
    if (!service::parse_job_line(line, argv[2], ++line_no, index, &job)) {
      continue;
    }
    ++index;
    const api::Instance inst = api::generate_instance(job.gen());
    const api::SolveResult r = api::Solver(job.solver).solve(inst, job.spec);
    const Weight opt = api::solve("exact-blossom", inst).matching.weight();
    const api::CostReport& c = r.cost;
    std::cout << "{\"id\":";
    util::write_json_string(std::cout, job.id);
    std::cout << ",\"passes\":" << c.passes << ",\"rounds\":" << c.rounds
              << ",\"memory_peak_words\":" << c.memory_peak_words
              << ",\"communication_words\":" << c.communication_words
              << ",\"bb_invocations\":" << c.bb_invocations
              << ",\"bb_max_invocation_cost\":" << c.bb_max_invocation_cost
              << ",\"size\":" << r.matching.size()
              << ",\"weight\":" << r.matching.weight()
              << ",\"valid\":"
              << (valid_matching(inst.graph, r.matching) ? "true" : "false")
              << ",\"optimum\":" << opt << "}\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "solver") return run_solver(argc, argv);
    if (cmd == "expect") return run_expect(argc, argv);
    std::cerr << "usage: wmatch_perf solver WORKLOAD SEED SECONDS TRACE\n"
                 "       wmatch_perf expect TEMPLATES.jsonl\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "wmatch_perf: " << e.what() << "\n";
    return 1;
  }
}
