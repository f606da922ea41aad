// Built-in solver adapters: every pre-existing entry point of the library
// wrapped behind the uniform SolveFn shape and registered by name.
//
// Adapter contract (asserted by tests/test_api.cpp): an adapter derives all
// randomness from Rng(spec.seed) and forwards to the pre-existing entry
// point unchanged, so its CostReport counters are identical to what a
// direct call with the same seed reports. The facade stamps algorithm name
// and wall clock; adapters fill matching, model counters, and stats.
#include <algorithm>
#include <utility>

#include "api/registry.h"
#include "baselines/greedy.h"
#include "baselines/local_ratio.h"
#include "core/main_alg.h"
#include "core/rand_arr_matching.h"
#include "core/unweighted_random_arrival.h"
#include "exact/blossom.h"
#include "exact/hopcroft_karp.h"
#include "exact/hungarian.h"
#include "mpc/mpc_context.h"
#include "util/require.h"
#include "util/rng.h"

namespace wmatch::api {

namespace {

void require_bipartite(const Instance& inst, const char* algo) {
  WMATCH_REQUIRE(inst.is_bipartite(),
                 std::string(algo) + " requires a bipartite instance");
}

core::ReductionConfig reduction_config(const SolverSpec& spec) {
  core::ReductionConfig cfg;
  cfg.epsilon = spec.epsilon;
  cfg.delta = spec.delta;
  cfg.runtime = spec.runtime;
  return cfg;
}

/// Shared tail of the three reduction adapters.
SolveResult reduction_result(const core::MainAlgResult& r,
                             const core::UnweightedMatcher& matcher,
                             const char* model) {
  SolveResult out;
  out.matching = r.matching;
  out.cost.model = model;
  out.cost.bb_invocations = r.bb_invocations;
  out.cost.bb_max_invocation_cost = matcher.max_invocation_cost();
  out.stats = {{"iterations", static_cast<double>(r.iterations)},
               {"classes", static_cast<double>(r.classes)},
               {"bb_total_cost", static_cast<double>(r.bb_total_cost)},
               {"total_gain", static_cast<double>(r.total_gain)}};
  return out;
}

// ---- Streaming model ----

SolveResult solve_greedy(const Instance& inst, const SolverSpec&) {
  Matching m =
      baselines::greedy_stream_matching(inst.stream, inst.num_vertices());
  SolveResult out;
  out.cost.model = "streaming";
  out.cost.passes = 1;
  out.cost.memory_peak_words = m.size();
  out.matching = std::move(m);
  return out;
}

SolveResult solve_local_ratio(const Instance& inst, const SolverSpec&) {
  baselines::LocalRatio lr(inst.num_vertices());
  for (const Edge& e : inst.stream) lr.feed(e);
  SolveResult out;
  out.matching = lr.unwind();
  out.cost.model = "streaming";
  out.cost.passes = 1;
  out.cost.memory_peak_words = lr.stack().size();
  out.stats = {{"stack_size", static_cast<double>(lr.stack().size())}};
  return out;
}

SolveResult solve_rand_arrival(const Instance& inst, const SolverSpec& spec) {
  Rng rng(spec.seed);
  core::RandArrConfig cfg;
  cfg.p = spec.knobs_or_default<RandomArrivalKnobs>().p;
  auto r = core::rand_arr_matching(inst.stream, inst.num_vertices(), cfg, rng);
  SolveResult out;
  out.matching = std::move(r.matching);
  out.cost.model = "streaming";
  out.cost.passes = 1;
  out.cost.memory_peak_words = r.stored_peak;
  out.stats = {{"m0_weight", static_cast<double>(r.m0_weight)},
               {"stack_size", static_cast<double>(r.stack_size)},
               {"t_size", static_cast<double>(r.t_size)}};
  return out;
}

SolveResult solve_unw_rand_arrival(const Instance& inst,
                                   const SolverSpec& spec) {
  const auto knobs = spec.knobs_or_default<RandomArrivalKnobs>();
  core::UnweightedRandomArrivalConfig cfg;
  if (knobs.p > 0.0) cfg.p = knobs.p;
  cfg.beta = knobs.beta;
  auto r = core::unweighted_random_arrival(inst.stream, inst.num_vertices(),
                                           cfg);
  SolveResult out;
  out.matching = std::move(r.matching);
  out.cost.model = "streaming";
  out.cost.passes = 1;
  out.cost.memory_peak_words = r.s1_stored + r.support_stored;
  out.stats = {{"m0_size", static_cast<double>(r.m0_size)},
               {"augmentations", static_cast<double>(r.augmentations)}};
  return out;
}

SolveResult solve_reduction_hk(const Instance& inst, const SolverSpec& spec) {
  Rng rng(spec.seed);
  core::HkStreamingMatcher matcher;
  auto r = core::maximum_weight_matching(inst.graph, reduction_config(spec),
                                         matcher, rng);
  SolveResult out = reduction_result(r, matcher, "streaming");
  out.cost.passes = r.parallel_model_cost;
  // Stored state of the multipass reduction (matching + per-round layered
  // subgraphs, O(n) per class), metered via streaming::MemoryMeter and
  // merged at the round barriers (MainAlgResult::memory_peak_words).
  out.cost.memory_peak_words = r.memory_peak_words;
  return out;
}

// ---- MPC model ----

SolveResult solve_reduction_mpc(const Instance& inst, const SolverSpec& spec) {
  const auto knobs = spec.knobs_or_default<MpcKnobs>();
  mpc::MpcConfig config;
  config.num_machines =
      knobs.num_machines > 0
          ? knobs.num_machines
          : std::max<std::size_t>(
                2, inst.num_edges() / std::max<std::size_t>(1,
                                                            inst.num_vertices()));
  config.machine_memory_words = knobs.machine_memory_words > 0
                                    ? knobs.machine_memory_words
                                    : 24 * inst.num_vertices();
  config.runtime = spec.runtime;

  Rng rng(spec.seed);
  mpc::MpcContext ctx(config);
  core::MpcMatcher matcher(ctx, rng);
  auto r = core::maximum_weight_matching(inst.graph, reduction_config(spec),
                                         matcher, rng);
  SolveResult out = reduction_result(r, matcher, "mpc");
  out.cost.rounds = r.parallel_model_cost;
  out.cost.memory_peak_words = ctx.peak_machine_memory();
  out.cost.communication_words = ctx.total_communication();
  out.stats.insert(
      out.stats.end(),
      {{"machines", static_cast<double>(config.num_machines)},
       {"machine_memory_words",
        static_cast<double>(config.machine_memory_words)},
       {"sequential_rounds", static_cast<double>(ctx.rounds())},
       {"memory_ok", ctx.memory_violated() ? 0.0 : 1.0}});
  return out;
}

// ---- Offline model ----

SolveResult solve_reduction_exact(const Instance& inst,
                                  const SolverSpec& spec) {
  Rng rng(spec.seed);
  core::ExactMatcher matcher;
  auto r = core::maximum_weight_matching(inst.graph, reduction_config(spec),
                                         matcher, rng);
  return reduction_result(r, matcher, "offline");
}

SolveResult solve_greedy_weight(const Instance& inst, const SolverSpec&) {
  SolveResult out;
  out.matching = baselines::greedy_by_weight(inst.graph);
  out.cost.model = "offline";
  return out;
}

SolveResult solve_blossom(const Instance& inst, const SolverSpec&) {
  SolveResult out;
  out.matching = exact::blossom_max_weight(inst.graph);
  out.cost.model = "offline";
  return out;
}

SolveResult solve_hungarian(const Instance& inst, const SolverSpec&) {
  require_bipartite(inst, "exact-hungarian");
  SolveResult out;
  out.matching = exact::hungarian_max_weight(inst.graph, inst.side);
  out.cost.model = "offline";
  return out;
}

SolveResult solve_hopcroft_karp(const Instance& inst, const SolverSpec&) {
  require_bipartite(inst, "exact-hk");
  auto r = exact::hopcroft_karp(inst.graph, inst.side);
  SolveResult out;
  out.matching = std::move(r.matching);
  out.cost.model = "offline";
  out.stats = {{"phases", static_cast<double>(r.phases)}};
  return out;
}

}  // namespace

void register_builtin_solvers(Registry& registry);

void register_builtin_solvers(Registry& registry) {
  registry.add({"greedy", "streaming", "weight", 0.0, false,
                "maximal matching by arrival order; 1/2 for cardinality, "
                "unbounded for weight (strawman baseline)"},
               solve_greedy);
  registry.add({"local-ratio", "streaming", "weight", 0.5, false,
                "Paz-Schwartzman local-ratio single pass [PS17]"},
               solve_local_ratio);
  registry.add({"rand-arrival", "streaming", "weight", 0.5, false,
                "Rand-Arr-Matching (Theorem 1.1): 1/2 + c in expectation on "
                "random-order streams, single pass"},
               solve_rand_arrival);
  registry.add({"unw-rand-arrival", "streaming", "cardinality", 0.5, false,
                "three-branch unweighted single pass (Theorem 3.4): 0.506 in "
                "expectation on random-order streams"},
               solve_unw_rand_arrival);
  registry.add({"reduction-hk", "streaming", "weight", 0.0, false,
                "(1-eps) multipass reduction (Theorem 1.2) with the "
                "phase-limited Hopcroft-Karp streaming black box"},
               solve_reduction_hk);
  registry.add({"reduction-mpc", "mpc", "weight", 0.0, false,
                "(1-eps) reduction (Theorem 1.2) on the simulated MPC "
                "cluster (LMSV11 filtering + Hopcroft-Karp black box)"},
               solve_reduction_mpc);
  registry.add({"reduction-exact", "offline", "weight", 0.0, false,
                "(1-eps) reduction with an exact black box — isolates "
                "reduction behaviour from black-box slack"},
               solve_reduction_exact);
  registry.add({"greedy-weight", "offline", "weight", 0.5, false,
                "offline greedy by decreasing weight (1/2)"},
               solve_greedy_weight);
  registry.add({"exact-blossom", "offline", "weight", 1.0, false,
                "exact maximum-weight matching (Blossom, general graphs)"},
               solve_blossom);
  registry.add({"exact-hungarian", "offline", "weight", 1.0, true,
                "exact maximum-weight bipartite matching (Hungarian)"},
               solve_hungarian);
  registry.add({"exact-hk", "offline", "cardinality", 1.0, true,
                "exact maximum-cardinality bipartite matching "
                "(Hopcroft-Karp)"},
               solve_hopcroft_karp);
}

}  // namespace wmatch::api
