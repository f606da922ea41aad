// Declarative benchmark sweeps over the unified solver API (tentpole of
// ISSUE 3).
//
// A SweepSpec names a cartesian grid — solver names x GenSpec instance
// families x epsilon x threads x seed — plus repetition/warmup counts.
// run_sweep expands the grid, runs every cell as a service job against a
// cached Instance, and keeps each cell's JobResult: exact model counters
// (passes / rounds / memory words / black-box calls) are deterministic
// functions of the seed, identical across repetitions and thread counts,
// while wall clock is summarized as median/min over the repetitions.
//
// Output is a Table (per-cell or seed-aggregated summary) and a
// schema-versioned BENCH JSON document (BENCH_<name>.json) whose
// "results" array the CI perf-regression gate diffs against
// bench/baselines/ci_baseline.json.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "api/api.h"
#include "service/job.h"
#include "util/table.h"

namespace wmatch::sweep {

/// Bumped whenever the JSON layout changes incompatibly; the regression
/// gate refuses to compare documents with mismatched versions.
inline constexpr int kBenchSchemaVersion = 1;

struct SweepSpec {
  std::string name = "sweep";  ///< BENCH_<name>.json id
  /// Registry names; every solver runs on every instance (cells whose
  /// solver is bipartite-only but whose instance is not are recorded as
  /// skipped rather than silently dropped).
  std::vector<std::string> solvers;
  /// Instance families. The per-GenSpec seed is overridden by the `seeds`
  /// axis, so one family entry fans out across all sweep seeds.
  std::vector<api::GenSpec> instances;
  std::vector<double> epsilons = {0.1};
  std::vector<std::size_t> threads = {1};
  std::vector<std::uint64_t> seeds = {1};
  /// Concurrent grid cells: the sweep submits its cells as jobs to the
  /// service Scheduler, so cell-level parallelism composes with each
  /// solver's own --threads parallelism. 1 = sequential (default, the
  /// bit-identical reference order), 0 = one job per hardware thread;
  /// counters are invariant under this knob either way.
  std::size_t jobs = 1;
  std::size_t repetitions = 1;  ///< timed runs per cell (median/min wall ms)
  std::size_t warmup = 0;       ///< untimed runs per cell before timing
  double delta = 0.0;           ///< SolverSpec::delta for every cell
  /// Compute the exact optimum (Blossom) per instance and report ratios.
  /// Hard families with a planted optimum report weight ratios for free
  /// even when this is off.
  bool with_optimum = false;
  /// Solver stats (SolveResult::stats names) appended as table columns.
  std::vector<std::string> stat_columns;
};

/// One fully-resolved grid point, in deterministic expansion order
/// (instances, then seeds, then solvers, then epsilons, then threads —
/// instance-major so the runner regenerates each instance once per seed).
struct SweepCell {
  std::size_t solver_idx = 0, instance_idx = 0, epsilon_idx = 0,
              threads_idx = 0, seed_idx = 0;
  std::string solver;
  api::GenSpec gen;  ///< resolved: gen.seed == seed
  double epsilon = 0.1;
  std::size_t threads = 1;
  std::uint64_t seed = 1;
};

/// The full cartesian product; size is the product of the axis sizes.
std::vector<SweepCell> expand_grid(const SweepSpec& spec);

struct SweepRow {
  SweepCell cell;
  /// The cell's job. `job.skipped` marks a bipartite-only solver on a
  /// non-bipartite instance (counters stay zero); otherwise it carries the
  /// exact counters (cost.wall_ms is the median over the repetitions),
  /// the matching, the objective's optimum when known, and solver stats.
  service::JobResult job;
};

struct SweepResult {
  SweepSpec spec;
  std::vector<SweepRow> rows;  ///< one per grid cell, in expansion order

  /// One table row per grid cell (exact counters, wall ms, stat columns).
  /// Both tables label each instance family by its generator plus the
  /// GenSpec fields that tell it apart from the spec's other families of
  /// that generator, e.g. "erdos_renyi order=increasing-weight".
  Table table() const;
  /// Seed axis aggregated: one row per (solver, instance, epsilon,
  /// threads) with ratio mean +- ci95 and median-of-medians wall ms.
  Table summary_table() const;
  /// BENCH_<name>.json: {"bench","schema_version","spec","results"}.
  /// Counters in "results" are bit-identical across thread counts at
  /// equal seed.
  void print_bench_json(std::ostream& os) const;
};

/// Expands and executes the grid. Instances (and, with with_optimum,
/// their Blossom optima) are computed once per (family, seed) and shared
/// across solvers/epsilons/threads.
SweepResult run_sweep(const SweepSpec& spec);

}  // namespace wmatch::sweep
