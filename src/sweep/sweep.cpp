#include "sweep/sweep.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "runtime/runtime.h"
#include "service/scheduler.h"
#include "util/json.h"
#include "util/require.h"
#include "util/stats.h"

namespace wmatch::sweep {

std::vector<SweepCell> expand_grid(const SweepSpec& spec) {
  WMATCH_REQUIRE(!spec.solvers.empty(), "sweep needs at least one solver");
  WMATCH_REQUIRE(!spec.instances.empty(),
                 "sweep needs at least one instance family");
  WMATCH_REQUIRE(!spec.epsilons.empty() && !spec.threads.empty() &&
                     !spec.seeds.empty(),
                 "sweep axes must be non-empty");
  std::vector<SweepCell> cells;
  cells.reserve(spec.instances.size() * spec.seeds.size() *
                spec.solvers.size() * spec.epsilons.size() *
                spec.threads.size());
  for (std::size_t ii = 0; ii < spec.instances.size(); ++ii) {
    for (std::size_t si = 0; si < spec.seeds.size(); ++si) {
      for (std::size_t ai = 0; ai < spec.solvers.size(); ++ai) {
        for (std::size_t ei = 0; ei < spec.epsilons.size(); ++ei) {
          for (std::size_t ti = 0; ti < spec.threads.size(); ++ti) {
            SweepCell c;
            c.solver_idx = ai;
            c.instance_idx = ii;
            c.epsilon_idx = ei;
            c.threads_idx = ti;
            c.seed_idx = si;
            c.solver = spec.solvers[ai];
            c.gen = spec.instances[ii];
            c.gen.seed = spec.seeds[si];
            c.epsilon = spec.epsilons[ei];
            c.threads = spec.threads[ti];
            c.seed = spec.seeds[si];
            cells.push_back(std::move(c));
          }
        }
      }
    }
  }
  return cells;
}

SweepResult run_sweep(const SweepSpec& spec) {
  const api::Registry& registry = api::Registry::instance();
  for (const std::string& solver : spec.solvers) {
    WMATCH_REQUIRE(registry.contains(solver),
                   "unknown solver '" + solver + "' in sweep spec");
  }

  SweepResult result;
  result.spec = spec;
  const std::vector<SweepCell> cells = expand_grid(spec);

  // The sweep is the service layer's first internal client: every grid
  // cell becomes one job and the Scheduler fans them out over the shared
  // runtime pool (spec.jobs concurrent cells, composing with each cell's
  // own --threads). The InstanceCache replaces the old one-live-slot
  // regeneration logic: cells arrive instance-major, so a capacity of a
  // few entries per concurrent job keeps every (family, seed) instance
  // and its lazily computed optima resident exactly while cells need it.
  service::SchedulerConfig cfg;
  cfg.jobs = spec.jobs;
  cfg.cache_capacity =
      std::max<std::size_t>(2, 2 * runtime::resolve_num_threads(spec.jobs));
  service::Scheduler scheduler(cfg);

  std::vector<service::JobSpec> jobs;
  jobs.reserve(cells.size());
  for (const SweepCell& cell : cells) {
    service::JobSpec job;
    job.id = "cell-" + std::to_string(jobs.size());
    job.solver = cell.solver;
    job.source = cell.gen;
    job.spec.epsilon = cell.epsilon;
    job.spec.delta = spec.delta;
    job.spec.seed = cell.seed;
    job.spec.runtime.num_threads = cell.threads;
    job.repetitions = spec.repetitions;
    job.warmup = spec.warmup;
    job.with_optimum = spec.with_optimum;
    jobs.push_back(std::move(job));
  }

  service::BatchResult batch = scheduler.run(jobs);
  result.rows.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    service::JobResult& jr = batch.results[i];
    // Pre-service behaviour: a failing cell aborted the whole sweep.
    if (!jr.ok()) {
      throw std::runtime_error("sweep cell '" + cells[i].solver + "' on '" +
                               cells[i].gen.generator + "': " + jr.error);
    }
    result.rows.push_back({cells[i], std::move(jr)});
  }
  return result;
}

namespace {

bool any_ratio(const std::vector<SweepRow>& rows) {
  return std::any_of(rows.begin(), rows.end(),
                     [](const SweepRow& r) { return r.job.has_ratio(); });
}

std::string stat_cell(const SweepRow& row, const std::string& name) {
  for (const auto& [key, value] : row.job.stats) {
    if (key == name) return Table::fmt(value, 1);
  }
  return "-";
}

using LabelFields = std::vector<std::pair<std::string, std::string>>;

/// The GenSpec fields a family label may name, as (name, value) pairs.
/// n and m have their own table columns and the seed is a grid axis.
LabelFields label_fields(const api::GenSpec& g) {
  return {{"attach", std::to_string(g.attach)},
          {"radius", util::json_number(g.radius)},
          {"aug_length", std::to_string(g.aug_length)},
          {"beta", util::json_number(g.beta)},
          {"weights", api::to_string(g.weights)},
          {"max_weight", std::to_string(g.max_weight)},
          {"order", api::to_string(g.order)}};
}

/// The instance column of both tables, one label per family: the
/// generator plus each field in which the family differs from another
/// family of the same generator, e.g. "erdos_renyi order=increasing-weight".
std::vector<std::string> family_labels(
    const std::vector<api::GenSpec>& families) {
  std::vector<LabelFields> fields;
  for (const api::GenSpec& g : families) fields.push_back(label_fields(g));
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < families.size(); ++i) {
    std::string label = families[i].generator;
    for (std::size_t f = 0; f < fields[i].size(); ++f) {
      for (std::size_t k = 0; k < families.size(); ++k) {
        if (families[k].generator == families[i].generator &&
            fields[k][f].second != fields[i][f].second) {
          label += " " + fields[i][f].first + "=" + fields[i][f].second;
          break;
        }
      }
    }
    labels.push_back(std::move(label));
  }
  return labels;
}

}  // namespace

Table SweepResult::table() const {
  const bool with_ratio = any_ratio(rows);
  const std::vector<std::string> labels = family_labels(spec.instances);
  std::vector<std::string> header = {"solver", "instance", "n",     "m",
                                     "eps",    "thr",      "seed",  "size",
                                     "weight", "passes",   "rounds",
                                     "mem words", "bb calls", "wall ms"};
  if (with_ratio) header.insert(header.begin() + 9, "ratio");
  for (const std::string& s : spec.stat_columns) header.push_back(s);
  Table t(header);
  for (const SweepRow& r : rows) {
    const service::JobResult& j = r.job;
    std::vector<std::string> row = {
        r.cell.solver,
        labels[r.cell.instance_idx],
        Table::fmt(j.n),
        Table::fmt(j.m),
        Table::fmt(r.cell.epsilon, 2),
        Table::fmt(r.cell.threads),
        Table::fmt(static_cast<std::size_t>(r.cell.seed))};
    if (j.skipped) {
      row.push_back("skipped");  // in place of the size column
      while (row.size() < t.columns()) row.push_back("-");
      t.add_row(std::move(row));
      continue;
    }
    row.push_back(Table::fmt(j.matching_size));
    row.push_back(Table::fmt(j.matching_weight));
    if (with_ratio) {
      row.push_back(j.has_ratio() ? Table::fmt(j.ratio(), 4) : "-");
    }
    row.push_back(Table::fmt(j.cost.passes));
    row.push_back(Table::fmt(j.cost.rounds));
    row.push_back(Table::fmt(j.cost.memory_peak_words));
    row.push_back(Table::fmt(j.cost.bb_invocations));
    row.push_back(Table::fmt(j.wall_ms_median, 1));
    for (const std::string& s : spec.stat_columns) {
      row.push_back(stat_cell(r, s));
    }
    t.add_row(std::move(row));
  }
  return t;
}

Table SweepResult::summary_table() const {
  const bool with_ratio = any_ratio(rows);
  const std::vector<std::string> labels = family_labels(spec.instances);

  // The values a column takes over a group's seeds, printed as "lo..hi"
  // (or one value).
  struct Range {
    std::size_t lo = std::numeric_limits<std::size_t>::max(), hi = 0;
    void add(std::size_t x) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    std::string str() const {
      return lo == hi ? Table::fmt(lo)
                      : Table::fmt(lo) + ".." + Table::fmt(hi);
    }
  };
  struct Group {
    const SweepRow* first = nullptr;
    Accumulator ratio;
    std::vector<double> wall;
    Range n, m;  ///< over every seed, skipped ones included
    Range passes, rounds, mem;
    std::size_t skipped = 0, ran = 0;
    std::vector<Accumulator> stat;  ///< one per spec.stat_columns entry
  };
  // Group key = every axis except the seed; std::map keeps deterministic
  // (expansion) order because the indices are ordered lexicographically.
  std::map<std::array<std::size_t, 4>, Group> groups;
  for (const SweepRow& r : rows) {
    Group& g = groups[{r.cell.solver_idx, r.cell.instance_idx,
                       r.cell.epsilon_idx, r.cell.threads_idx}];
    if (!g.first) g.first = &r;
    const service::JobResult& j = r.job;
    g.n.add(j.n);
    g.m.add(j.m);
    if (j.skipped) {
      ++g.skipped;
      continue;
    }
    g.passes.add(j.cost.passes);
    g.rounds.add(j.cost.rounds);
    g.mem.add(j.cost.memory_peak_words);
    ++g.ran;
    if (j.has_ratio()) g.ratio.add(j.ratio());
    g.wall.push_back(j.wall_ms_median);
    g.stat.resize(spec.stat_columns.size());
    for (std::size_t s = 0; s < spec.stat_columns.size(); ++s) {
      for (const auto& [key, value] : j.stats) {
        if (key == spec.stat_columns[s]) {
          g.stat[s].add(value);
          break;
        }
      }
    }
  }

  std::vector<std::string> header = {"solver", "instance", "n",    "m",
                                     "eps",    "thr",      "seeds"};
  if (with_ratio) header.push_back("ratio (mean±ci95)");
  header.insert(header.end(), {"passes", "rounds", "mem words", "wall ms"});
  for (const std::string& s : spec.stat_columns) header.push_back(s);
  Table t(header);
  for (const auto& [key, g] : groups) {
    const SweepRow& f = *g.first;
    std::vector<std::string> row = {f.cell.solver,
                                    labels[f.cell.instance_idx],
                                    g.n.str(),
                                    g.m.str(),
                                    Table::fmt(f.cell.epsilon, 2),
                                    Table::fmt(f.cell.threads),
                                    Table::fmt(g.ran)};
    if (g.ran == 0) {
      row.back() = "skipped";
      while (row.size() < t.columns()) row.push_back("-");
      t.add_row(std::move(row));
      continue;
    }
    if (with_ratio) {
      row.push_back(g.ratio.count() == 0
                        ? "-"
                        : Table::fmt(g.ratio.mean(), 4) + " ± " +
                              Table::fmt(g.ratio.ci95_halfwidth(), 4));
    }
    row.push_back(g.passes.str());
    row.push_back(g.rounds.str());
    row.push_back(g.mem.str());
    row.push_back(Table::fmt(median(g.wall), 1));
    for (std::size_t s = 0; s < spec.stat_columns.size(); ++s) {
      row.push_back(s < g.stat.size() && g.stat[s].count() > 0
                        ? Table::fmt(g.stat[s].mean(), 1)
                        : "-");
    }
    t.add_row(std::move(row));
  }
  return t;
}

void SweepResult::print_bench_json(std::ostream& os) const {
  os << "{\"bench\":";
  util::write_json_string(os, spec.name);
  os << ",\"schema_version\":" << kBenchSchemaVersion;

  os << ",\"spec\":{\"repetitions\":" << std::max<std::size_t>(1, spec.repetitions)
     << ",\"warmup\":" << spec.warmup << ",\"delta\":" << util::json_number(spec.delta)
     << ",\"with_optimum\":" << (spec.with_optimum ? "true" : "false");
  os << ",\"solvers\":[";
  for (std::size_t i = 0; i < spec.solvers.size(); ++i) {
    if (i) os << ',';
    util::write_json_string(os, spec.solvers[i]);
  }
  os << "],\"epsilons\":[";
  for (std::size_t i = 0; i < spec.epsilons.size(); ++i) {
    if (i) os << ',';
    os << util::json_number(spec.epsilons[i]);
  }
  os << "],\"threads\":[";
  for (std::size_t i = 0; i < spec.threads.size(); ++i) {
    if (i) os << ',';
    os << spec.threads[i];
  }
  os << "],\"seeds\":[";
  for (std::size_t i = 0; i < spec.seeds.size(); ++i) {
    if (i) os << ',';
    os << spec.seeds[i];
  }
  os << "],\"instances\":[";
  for (std::size_t i = 0; i < spec.instances.size(); ++i) {
    const api::GenSpec& g = spec.instances[i];
    if (i) os << ',';
    os << "{\"generator\":";
    util::write_json_string(os, g.generator);
    os << ",\"n\":" << g.n << ",\"m\":" << g.m << ",\"weights\":";
    util::write_json_string(os, api::to_string(g.weights));
    os << ",\"order\":";
    util::write_json_string(os, api::to_string(g.order));
    os << '}';
  }
  os << "]},\"results\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    if (i) os << ',';
    os << "{\"algorithm\":";
    util::write_json_string(os, r.cell.solver);
    os << ",\"generator\":";
    util::write_json_string(os, r.cell.gen.generator);
    os << ",\"instance\":";
    util::write_json_string(os, r.job.instance_name);
    // The family index keeps results distinguishable (and the gate's keys
    // unique) when two families share generator/n/m and differ only in,
    // say, the weight distribution; it is stable across runs of one spec.
    os << ",\"family\":" << r.cell.instance_idx << ",\"weights\":";
    util::write_json_string(os, api::to_string(r.cell.gen.weights));
    os << ",\"n\":" << r.job.n << ",\"m\":" << r.job.m
       << ",\"epsilon\":" << util::json_number(r.cell.epsilon)
       << ",\"threads\":" << r.cell.threads << ",\"seed\":" << r.cell.seed
       << ",\"skipped\":" << (r.job.skipped ? "true" : "false");
    if (!r.job.skipped) service::print_bench_measurements(os, r.job);
    os << '}';
  }
  os << "]}\n";
}

}  // namespace wmatch::sweep
