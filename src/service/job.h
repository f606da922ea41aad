// Batch-solving jobs (tentpole of ISSUE 5).
//
// A JobSpec is one fully-described solve request: an instance source
// (declarative GenSpec or a DIMACS file), a registry solver name, and the
// SolverSpec (epsilon / delta / seed / threads / typed knobs) to run it
// with. Jobs are the unit the Scheduler multiplexes over the shared
// runtime::ThreadPool; every job gets its own solver state (MpcContext,
// MemoryMeter, Rng(spec.seed)), so a job's CostReport is bit-identical to
// a serial `wmatch_cli solve` run at the same seed no matter how many jobs
// execute concurrently.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "api/api.h"

namespace wmatch::service {

/// Load a DIMACS-flavoured graph as the instance, streamed in `order`.
/// The random order draws from stream_seed_for(job seed), mirroring
/// `wmatch_cli solve --input`.
struct FileSource {
  std::string path;
  api::ArrivalOrder order = api::ArrivalOrder::kRandom;
};

struct JobSpec {
  /// Stable label for reports and the BENCH gate key; jobs submitted with
  /// an empty id are stamped "job-<index>" at submission.
  std::string id;
  std::string solver;  ///< registry name
  std::variant<api::GenSpec, FileSource> source;
  api::SolverSpec spec;
  std::size_t repetitions = 1;  ///< timed solves (median/min wall ms)
  std::size_t warmup = 0;       ///< untimed solves before timing
  /// Compute the exact optimum of the solver's objective (Blossom) when no
  /// planted optimum exists; planted optima are reported either way.
  bool with_optimum = false;
  /// Client-stamped trace context (ISSUE 10): the optional "trace" field
  /// of the JSONL protocol. A nonzero trace_id ties the job's server-side
  /// spans to the client's via "req" flow events; trace_sent_ns is the
  /// client's monotonic send timestamp, carried for trace tooling.
  /// Telemetry-only: never feeds solver state, cache keys, or counters.
  std::uint64_t trace_id = 0;
  std::uint64_t trace_sent_ns = 0;

  bool is_generated() const {
    return std::holds_alternative<api::GenSpec>(source);
  }
  const api::GenSpec& gen() const { return std::get<api::GenSpec>(source); }
  const FileSource& file() const { return std::get<FileSource>(source); }
};

/// Canonical InstanceCache key: every GenSpec field serialized for
/// generated sources, a content hash (FNV-1a over the file bytes) plus the
/// arrival order for file sources, and the stream seed whenever the order
/// actually consumes one (kRandom). Two jobs collide exactly when they
/// would build byte-identical instances. Throws std::invalid_argument for
/// unreadable files.
std::string cache_key(const JobSpec& job);

/// One executed job, in submission order. Failed jobs carry the exception
/// message in `error` with counters zeroed; skipped jobs ran a
/// bipartite-only solver on a non-bipartite instance (mirroring the sweep
/// layer's skip semantics).
struct JobResult {
  std::size_t index = 0;  ///< submission order
  std::string id;
  std::string solver;
  /// Identity fields echoed from the spec so the BENCH gate key
  /// (algorithm, generator, family=index, instance=id, n, m, epsilon,
  /// threads, seed) is self-contained: generator name ("file" for DIMACS
  /// sources), effective thread count (after any scheduler override), and
  /// the solver seed.
  std::string generator;
  double epsilon = 0.0;
  std::size_t threads = 1;
  std::uint64_t seed = 0;
  std::string instance_name;
  std::size_t n = 0, m = 0;
  bool skipped = false;
  std::string error;
  /// True when the instance came out of the InstanceCache (including jobs
  /// that waited on another job's in-flight build of the same key).
  bool cache_hit = false;
  /// Exact counters; cost.wall_ms is the median over the repetitions.
  api::CostReport cost;
  std::size_t matching_size = 0;
  Weight matching_weight = 0;
  /// Optimum of the solver's registered objective (planted or Blossom);
  /// -1 when unknown.
  double optimum = -1.0;
  double achieved = 0.0;  ///< weight or cardinality, per the objective
  double wall_ms_median = 0.0, wall_ms_min = 0.0;
  /// Time the submission sat in the JobQueue before a worker picked it up
  /// (streaming path only; 0 for materialized batches and direct run_job).
  double queue_wait_ms = 0.0;
  /// Echo of JobSpec::trace_id so the response path can continue the
  /// request's flow (0 = no client trace context; not serialized).
  std::uint64_t trace_id = 0;
  std::vector<std::pair<std::string, double>> stats;

  bool ok() const { return error.empty(); }
  bool has_ratio() const { return ok() && !skipped && optimum >= 0.0; }
  double ratio() const { return optimum == 0.0 ? 1.0 : achieved / optimum; }
};

/// Writes one self-contained JSON object (single line, '\n'-terminated):
/// {"id":...,"algorithm":...,"instance":{...},"cache_hit":...,
///  "cost":{...},"matching":{...},"wall_ms":{...},"stats":{...}} — the
/// `wmatch_cli batch` / `serve` per-job output contract. Failed jobs emit
/// {"id":...,"error":...} instead.
void print_job_json(std::ostream& os, const JobResult& r);

/// Writes the measured members of a BENCH `results` entry for a job that
/// ran (neither failed nor skipped): `,"counters":{...}`, then
/// `"optimum"`/`"ratio"` when known, `"wall_ms":{"median","min"}` and
/// `"stats":{...}`. The sweep and batch BENCH documents both end their
/// entries with it, so scripts/check_bench_regression.py reads one schema.
void print_bench_measurements(std::ostream& os, const JobResult& r);

}  // namespace wmatch::service
