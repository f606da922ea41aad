// wmatch_cli — command-line driver over the unified solver API.
//
//   wmatch_cli list [--json]
//       Print every registered solver (name, model, objective, guarantee).
//
//   wmatch_cli solve --algo=NAME[,NAME...] [instance flags] [solver flags]
//       Build one instance, run each named solver on it, print a
//       comparison table — or, with --json, one JSON object per solver
//       (each carrying the normalized CostReport).
//
//   wmatch_cli bench --preset=ci|e1..e13 [axis overrides] [--json[=path]]
//   wmatch_cli bench --algo=LIST --gen=LIST [grid flags] [--json[=path]]
//       Run a declarative sweep (solvers x instance families x epsilon x
//       threads x seeds) through the sweep engine and print the per-cell
//       table (--summary aggregates the seed axis). --json writes the
//       schema-versioned BENCH_<name>.json the CI regression gate diffs.
//
//   wmatch_cli batch --file=JOBS.jsonl | --stdin [--jobs=N] [--threads=T]
//       Execute a JSONL job stream through the service Scheduler (--jobs
//       concurrent jobs over the shared pool, instances deduplicated by
//       the InstanceCache) and print one CostReport JSON object per job,
//       in submission order; the throughput/latency/cache summary goes to
//       stderr. --json writes the batch BENCH document the CI per-job
//       counter gate diffs. Exits 1 when any job failed.
//
//   wmatch_cli serve --listen=PORT | --stdin
//       Long-lived session: one job JSON per input line, one result JSON
//       per output line (flushed), instance cache warm across requests.
//       --listen accepts concurrent TCP connections on 127.0.0.1 (the
//       net::Server poll loop; --stdin is the same connection handler on
//       fd 0/1); results stream back per connection in completion order,
//       a full job queue answers {"error":"overloaded"}, and
//       SIGINT/SIGTERM drains gracefully (in-flight jobs finish, results
//       flush, a final metrics snapshot is logged). Each served job also
//       logs one structured progress line to stderr; the input line
//       "metrics" answers with an obs registry snapshot and "stats" with
//       a windowed delta snapshot (rates + sliding-window percentiles)
//       instead of a job result. --idle-timeout closes silent idle
//       connections; --metrics-out appends a windowed stats JSONL time
//       series (plus a Prometheus exposition beside it). See
//       docs/SERVING.md for the wire protocol.
//
//   wmatch_cli loadgen --connect=HOST:PORT --jobs-file=JOBS.jsonl
//       Open-loop Poisson load generator against a running serve
//       --listen process: --rate arrivals/sec for --duration seconds
//       over --connections sockets, cycling the job templates. Records
//       end-to-end latency percentiles and writes the schema-versioned
//       BENCH document the CI serving gate diffs.
//
// Every command takes --trace=FILE to record a Chrome/Perfetto trace of
// the run (spans over solver rounds, HK phases, pool tasks, scheduler
// jobs, and cache builds — see src/obs/ and DESIGN.md section 7).
//
// Unknown --algo / --gen / --preset names, malformed flag values or job
// lines, unreadable or malformed --input files, and unknown flags all
// exit 2 with a one-line error; runtime failures exit 1.
//
// Instance flags:
//   --gen=erdos_renyi|bipartite|barabasi_albert|geometric|path|cycle
//   --n=N --m=M --attach=K --radius=R
//   --weights=uniform|exponential|polynomial|classes  --max-weight=W
//   --order=random|as-generated|increasing-weight|decreasing-weight|clustered
//   --input=FILE   load a DIMACS-flavoured graph instead of generating
//   --seed=S       generation + solver seed
// Solver flags:
//   --epsilon=E --delta=D --threads=T
//   --machines=G --mem-words=S     (MPC cluster sizing; 0 = paper regime)
//   --p=P --beta=B                 (random-arrival knobs)
// Output flags:
//   --json          machine-readable output
//   --with-optimum  also run Blossom and report ratios
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "exact/blossom.h"
#include "graph/io.h"
#include "net/net.h"
#include "obs/obs.h"
#include "service/service.h"
#include "sweep/presets.h"
#include "sweep/sweep.h"
#include "util/json.h"

namespace {

using namespace wmatch;

struct CliOptions {
  std::vector<std::string> algos;
  api::GenSpec gen;
  std::string input_path;
  api::SolverSpec spec;
  api::MpcKnobs mpc;
  api::RandomArrivalKnobs arrival;
  bool mpc_knobs_set = false;
  bool arrival_knobs_set = false;
  bool json = false;
  bool with_optimum = false;
  std::string trace_path;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "error: " << msg
            << "\nrun `wmatch_cli help` for the flag reference\n";
  std::exit(2);
}

/// RAII-ish session behind --trace=FILE, shared by every command: opens
/// the output up front (an unwritable path is a usage error, exit 2, like
/// any other bad flag value), arms the span tracer, and on finish() stops
/// recording and writes the Chrome/Perfetto trace-event document.
class TraceSession {
 public:
  void open(const std::string& path) {
    os_.open(path);
    if (!os_.good()) {
      usage_error("--trace: cannot open '" + path + "' for writing");
    }
    path_ = path;
    obs::set_thread_name("main");
    obs::reset_tracing();
    obs::start_tracing();
  }

  /// Returns the command's exit code contribution (1 on write failure).
  int finish() {
    if (path_.empty()) return 0;
    obs::stop_tracing();
    obs::write_chrome_trace(os_);
    os_.flush();
    if (!os_.good()) {
      std::cerr << "error: could not write trace " << path_ << "\n";
      return 1;
    }
    std::cerr << "wrote trace " << path_ << "\n";
    return 0;
  }

 private:
  std::ofstream os_;
  std::string path_;
};

void print_help() {
  std::cout <<
      "usage: wmatch_cli <command> [flags]\n"
      "\n"
      "commands:\n"
      "  list                     print registered solvers\n"
      "  solve --algo=A[,B,...]   run solvers on one instance\n"
      "  bench                    sweep a solver x instance grid\n"
      "  batch                    run a JSONL job stream via the service\n"
      "  serve                    long-lived one-job-per-line session\n"
      "                           (--listen=PORT TCP or --stdin)\n"
      "  loadgen                  open-loop load generator against a\n"
      "                           running serve --listen process\n"
      "  help                     this text\n"
      "\n"
      "instance flags (solve):\n"
      "  --gen=NAME       erdos_renyi (default) | bipartite |\n"
      "                   barabasi_albert | geometric | path | cycle |\n"
      "                   hard-four-cycle | hard-greedy-trap |\n"
      "                   hard-long-path | hard-planted-augs |\n"
      "                   hard-figure1 | hard-figure2\n"
      "  --n=N --m=M      size (defaults 1000 / 4000)\n"
      "  --attach=K       barabasi_albert attachment degree\n"
      "  --radius=R       geometric connection radius\n"
      "  --aug-length=L   hard-long-path augmentation half-length\n"
      "  --gen-beta=B     hard-planted-augs wing density (solve; bench\n"
      "                   instances use --beta)\n"
      "  --weights=NAME   unit | uniform | exponential | polynomial |\n"
      "                   classes\n"
      "  --max-weight=W   weight scale (default 4096)\n"
      "  --order=NAME     random | as-generated | increasing-weight |\n"
      "                   decreasing-weight | clustered\n"
      "  --input=FILE     load a graph (overrides --gen)\n"
      "  --seed=S         generation + solver seed (default 1)\n"
      "\n"
      "solver flags (solve):\n"
      "  --epsilon=E --delta=D --threads=T\n"
      "  --machines=G --mem-words=S   MPC sizing (0 = paper regime)\n"
      "  --p=P --beta=B               random-arrival knobs\n"
      "\n"
      "output flags (solve):\n"
      "  --json           one JSON object per solver on stdout\n"
      "  --with-optimum   also run exact Blossom, report ratios\n"
      "  --trace=FILE     write a Chrome/Perfetto trace-event JSON of the\n"
      "                   run (also on bench / batch / serve)\n"
      "\n"
      "bench flags:\n"
      "  --preset=NAME    ci | e1 | e2 | ... | e13 (named\n"
      "                   grids;\n"
      "                   --algo/--epsilon/--threads/--seeds/--reps/\n"
      "                   --warmup override the preset's axes, but its\n"
      "                   instance list is fixed: --gen and the instance\n"
      "                   shape flags are rejected alongside --preset)\n"
      "  --algo=LIST      comma-separated solver axis\n"
      "  --gen=LIST       comma-separated generator axis (instance shape\n"
      "                   comes from the instance flags above)\n"
      "  --epsilon=LIST --threads=LIST --seeds=LIST   grid axes\n"
      "  --jobs=N         concurrent grid cells via the service scheduler\n"
      "  --reps=R --warmup=W   timed / untimed runs per cell\n"
      "  --delta=D --with-optimum --name=ID\n"
      "  --summary        aggregate the seed axis in the table\n"
      "  --json[=path]    write schema-versioned BENCH_<name>.json\n"
      "  --trace=FILE     Chrome/Perfetto trace of the whole sweep\n"
      "\n"
      "batch flags:\n"
      "  --file=PATH      JSONL job file (see DESIGN.md section 6 for the\n"
      "                   job schema); --stdin reads the stream instead\n"
      "  --jobs=N         concurrent jobs (default 1, 0 = hw threads)\n"
      "  --threads=T      override every job's solver thread count\n"
      "  --cache=N        resident InstanceCache entries (default 16)\n"
      "  --queue=N        bounded job-queue capacity (default 256)\n"
      "  --name=ID        BENCH document id (default \"batch\")\n"
      "  --summary        also print the per-job table to stderr\n"
      "  --json[=path]    write BENCH_<name>.json for the CI per-job gate\n"
      "                   (includes a \"metrics\" registry snapshot block)\n"
      "  --trace=FILE     Chrome/Perfetto trace of the whole batch\n"
      "\n"
      "serve flags (one of --listen / --stdin required; protocol\n"
      "reference: docs/SERVING.md):\n"
      "  --listen=PORT    accept concurrent JSONL connections on\n"
      "                   127.0.0.1:PORT (0 = pick an ephemeral port; the\n"
      "                   bound port is logged); results stream back per\n"
      "                   connection in completion order; SIGINT/SIGTERM\n"
      "                   drains gracefully\n"
      "  --stdin          serve fd 0/1 as one pre-accepted connection:\n"
      "                   one job JSON in, one result JSON out, plus one\n"
      "                   structured progress line per job on stderr; the\n"
      "                   input line \"metrics\" answers with a metrics\n"
      "                   registry snapshot JSON object, and \"stats\" with\n"
      "                   a windowed delta snapshot (per-interval rates\n"
      "                   plus sliding-window p50/p95/p99)\n"
      "  --max-conns=N    concurrent connection ceiling (default 64);\n"
      "                   extra connections are answered\n"
      "                   {\"error\":\"overloaded\"} and closed\n"
      "  --queue=N        bounded job-queue capacity (default 256); a\n"
      "                   full queue rejects jobs with\n"
      "                   {\"error\":\"overloaded\"}\n"
      "  --idle-timeout=SECS  close a socket connection after SECS with\n"
      "                   no bytes read and no jobs in flight (default 0\n"
      "                   = never; counted as net.idle_closes)\n"
      "  --metrics-out=FILE   append one windowed stats JSON object per\n"
      "                   second to FILE (JSONL) and rewrite a Prometheus\n"
      "                   text exposition as metrics.prom beside it\n"
      "  --jobs=N         concurrent jobs (default 1, 0 = hw threads)\n"
      "  --threads=T --cache=N --trace=FILE   as for batch\n"
      "\n"
      "loadgen flags (requires --connect and --jobs-file):\n"
      "  --connect=H:P    serve address (HOST:PORT, or PORT alone for\n"
      "                   127.0.0.1)\n"
      "  --jobs-file=PATH JSONL job templates, cycled round-robin; each\n"
      "                   arrival is re-stamped with a unique id\n"
      "  --rate=R         target arrivals/sec, Poisson, open loop\n"
      "                   (default 10)\n"
      "  --duration=SEC   sending window (default 5)\n"
      "  --connections=C  concurrent client sockets (default 1)\n"
      "  --seed=S         arrival-schedule seed (default 1)\n"
      "  --name=ID        BENCH document id (default \"loadgen\")\n"
      "  --json[=path]    write BENCH_<name>.json (per-template counters\n"
      "                   and end-to-end latency percentiles)\n"
      "  --trace=FILE     Chrome/Perfetto trace of the client side\n";
}

bool consume(const std::string& arg, const char* flag, std::string* value) {
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

std::size_t parse_size(const std::string& flag, const std::string& value) {
  try {
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument(value);
    }
    return static_cast<std::size_t>(std::stoull(value));
  } catch (const std::exception&) {  // non-numeric or out of range
    usage_error(flag + " expects a non-negative integer, got '" + value + "'");
  }
}

double parse_double(const std::string& flag, const std::string& value) {
  std::istringstream ss(value);
  double x;
  if (!(ss >> x) || !ss.eof()) {
    usage_error(flag + " expects a number, got '" + value + "'");
  }
  return x;
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// Exits 2 with the list of known names — the registry lookup would also
/// throw, but as a generic std::invalid_argument that exits 1; flag typos
/// are usage errors and must say what IS available.
void require_known_solver(const std::string& name) {
  if (api::Registry::instance().contains(name)) return;
  std::vector<std::string> known;
  for (const auto& info : api::Registry::instance().list()) {
    known.push_back(info.name);
  }
  usage_error("unknown solver '" + name + "' (known: " + join(known) + ")");
}

void require_known_generator(const std::string& name) {
  if (api::is_known_generator(name)) return;
  usage_error("unknown generator '" + name +
              "' (known: " + join(api::known_generators()) + ")");
}

gen::WeightDist parse_weights_flag(const std::string& value) {
  try {
    return api::parse_weight_dist(value);
  } catch (const std::exception&) {
    usage_error("--weights: unknown weight distribution '" + value +
                "' (known: unit, uniform, exponential, polynomial, classes)");
  }
}

api::ArrivalOrder parse_order_flag(const std::string& value) {
  try {
    return api::parse_arrival_order(value);
  } catch (const std::exception&) {
    usage_error("--order: unknown arrival order '" + value +
                "' (known: random, as-generated, increasing-weight, "
                "decreasing-weight, clustered)");
  }
}

/// hard-planted-augs wing density: a probability, checked at parse time
/// so a bad value is a usage error (exit 2), not a runtime failure.
double parse_gen_beta_flag(const std::string& flag, const std::string& value) {
  const double beta = parse_double(flag, value);
  if (beta < 0.0 || beta > 1.0) {
    usage_error(flag + " expects a density in [0,1], got '" + value + "'");
  }
  return beta;
}

CliOptions parse_solve_flags(int argc, char** argv) {
  CliOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (consume(arg, "--algo", &v)) {
      std::stringstream ss(v);
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (!name.empty()) opt.algos.push_back(name);
      }
    } else if (consume(arg, "--gen", &v)) {
      require_known_generator(v);
      opt.gen.generator = v;
    } else if (consume(arg, "--n", &v)) {
      opt.gen.n = parse_size("--n", v);
    } else if (consume(arg, "--m", &v)) {
      opt.gen.m = parse_size("--m", v);
    } else if (consume(arg, "--attach", &v)) {
      opt.gen.attach = parse_size("--attach", v);
    } else if (consume(arg, "--radius", &v)) {
      opt.gen.radius = parse_double("--radius", v);
    } else if (consume(arg, "--aug-length", &v)) {
      opt.gen.aug_length = parse_size("--aug-length", v);
    } else if (consume(arg, "--weights", &v)) {
      opt.gen.weights = parse_weights_flag(v);
    } else if (consume(arg, "--max-weight", &v)) {
      opt.gen.max_weight = static_cast<Weight>(parse_size("--max-weight", v));
    } else if (consume(arg, "--order", &v)) {
      opt.gen.order = parse_order_flag(v);
    } else if (consume(arg, "--input", &v)) {
      opt.input_path = v;
    } else if (consume(arg, "--seed", &v)) {
      opt.gen.seed = parse_size("--seed", v);
      opt.spec.seed = opt.gen.seed;
    } else if (consume(arg, "--epsilon", &v)) {
      opt.spec.epsilon = parse_double("--epsilon", v);
    } else if (consume(arg, "--delta", &v)) {
      opt.spec.delta = parse_double("--delta", v);
    } else if (consume(arg, "--threads", &v)) {
      opt.spec.runtime.num_threads = parse_size("--threads", v);
    } else if (consume(arg, "--machines", &v)) {
      opt.mpc.num_machines = parse_size("--machines", v);
      opt.mpc_knobs_set = true;
    } else if (consume(arg, "--mem-words", &v)) {
      opt.mpc.machine_memory_words = parse_size("--mem-words", v);
      opt.mpc_knobs_set = true;
    } else if (consume(arg, "--p", &v)) {
      opt.arrival.p = parse_double("--p", v);
      opt.arrival_knobs_set = true;
    } else if (consume(arg, "--gen-beta", &v)) {
      opt.gen.beta = parse_gen_beta_flag("--gen-beta", v);
    } else if (consume(arg, "--beta", &v)) {
      opt.arrival.beta = parse_double("--beta", v);
      opt.arrival_knobs_set = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--with-optimum") {
      opt.with_optimum = true;
    } else if (consume(arg, "--trace", &v)) {
      opt.trace_path = v;
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }
  if (opt.algos.empty()) usage_error("solve requires --algo=NAME[,NAME...]");
  if (opt.mpc_knobs_set && opt.arrival_knobs_set) {
    usage_error("--machines/--mem-words and --p/--beta are mutually "
                "exclusive (one typed knob set per spec)");
  }
  return opt;
}

int cmd_list(bool json) {
  const auto solvers = api::Registry::instance().list();
  if (json) {
    std::cout << "[";
    for (std::size_t i = 0; i < solvers.size(); ++i) {
      const auto& s = solvers[i];
      if (i) std::cout << ',';
      std::cout << "{\"name\":";
      util::write_json_string(std::cout, s.name);
      std::cout << ",\"model\":";
      util::write_json_string(std::cout, s.model);
      std::cout << ",\"objective\":";
      util::write_json_string(std::cout, s.objective);
      std::cout << ",\"guarantee\":" << s.guarantee
                << ",\"bipartite_only\":" << (s.bipartite_only ? "true" : "false")
                << ",\"description\":";
      util::write_json_string(std::cout, s.description);
      std::cout << '}';
    }
    std::cout << "]\n";
    return 0;
  }
  Table t({"name", "model", "objective", "guarantee", "description"});
  for (const auto& s : solvers) {
    t.add_row({s.name, s.model, s.objective,
               s.guarantee > 0.0 ? Table::fmt(s.guarantee, 2) : "1-eps/heur",
               s.description});
  }
  t.print(std::cout);
  return 0;
}

int cmd_solve(int argc, char** argv) {
  CliOptions opt = parse_solve_flags(argc, argv);
  for (const std::string& algo : opt.algos) require_known_solver(algo);
  TraceSession trace;
  if (!opt.trace_path.empty()) trace.open(opt.trace_path);
  if (opt.mpc_knobs_set) opt.spec.knobs = opt.mpc;
  if (opt.arrival_knobs_set) opt.spec.knobs = opt.arrival;

  api::Instance inst;
  if (!opt.input_path.empty()) {
    // An unreadable or malformed input file is a usage error like any
    // other bad flag value: exit 2 with the loader's diagnostic (path or
    // line number) instead of surfacing as a generic runtime failure.
    try {
      inst = api::make_instance(io::load_graph(opt.input_path), opt.gen.order,
                                api::stream_seed_for(opt.gen.seed),
                                opt.input_path);
    } catch (const std::exception& e) {
      usage_error("--input=" + opt.input_path + ": " + e.what());
    }
  } else {
    inst = api::generate_instance(opt.gen);
  }

  // Each solver is compared against the optimum of its registered
  // objective: weight solvers against Blossom's max weight, cardinality
  // solvers against Blossom's max cardinality. Blossom dominates the wall
  // clock on large instances, so each optimum is computed only if some
  // requested solver has that objective.
  double opt_weight = -1.0, opt_size = -1.0;
  if (opt.with_optimum) {
    for (const std::string& algo : opt.algos) {
      const bool cardinality =
          api::Registry::instance().info(algo).objective == "cardinality";
      if (cardinality && opt_size < 0.0) {
        opt_size = static_cast<double>(
            exact::blossom_max_weight(inst.graph, true).size());
      } else if (!cardinality && opt_weight < 0.0) {
        opt_weight = static_cast<double>(
            exact::blossom_max_weight(inst.graph).weight());
      }
    }
  }

  std::vector<api::SolveResult> results;
  for (const std::string& algo : opt.algos) {
    api::SolveResult r = api::Solver(algo).solve(inst, opt.spec);
    if (opt.json) {
      const bool cardinality =
          api::Registry::instance().info(algo).objective == "cardinality";
      api::print_json(std::cout, r, inst, opt.spec,
                      cardinality ? opt_size : opt_weight);
    }
    results.push_back(std::move(r));
  }
  if (!opt.json) {
    std::cout << "instance: " << inst.name << "  n=" << inst.num_vertices()
              << " m=" << inst.num_edges()
              << (inst.is_bipartite() ? " (bipartite)" : "") << "  seed="
              << opt.gen.seed << "\n\n";
    api::result_table(results, opt_weight, opt_size).print(std::cout);
  }
  return trace.finish();
}

// ---- bench: declarative sweeps over the sweep engine ----

struct BenchOptions {
  std::string preset;
  std::vector<std::string> algos;
  std::vector<std::string> gens;
  api::GenSpec shape;  ///< shared instance shape for every --gen family
  bool shape_set = false;
  std::vector<double> epsilons;
  std::vector<std::size_t> threads;
  std::vector<std::uint64_t> seeds;
  std::size_t jobs = 0;
  bool jobs_set = false;
  std::size_t reps = 0, warmup = 0;
  bool reps_set = false, warmup_set = false;
  double delta = 0.0;
  bool delta_set = false;
  bool with_optimum = false;
  std::string name;
  bool summary = false;
  bool json = false;
  std::string json_path;
  std::string trace_path;
};

BenchOptions parse_bench_flags(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (consume(arg, "--preset", &v)) {
      opt.preset = v;
    } else if (consume(arg, "--algo", &v)) {
      opt.algos = split_list(v);
    } else if (consume(arg, "--gen", &v)) {
      opt.gens = split_list(v);
    } else if (consume(arg, "--n", &v)) {
      opt.shape.n = parse_size("--n", v);
      opt.shape_set = true;
    } else if (consume(arg, "--m", &v)) {
      opt.shape.m = parse_size("--m", v);
      opt.shape_set = true;
    } else if (consume(arg, "--attach", &v)) {
      opt.shape.attach = parse_size("--attach", v);
      opt.shape_set = true;
    } else if (consume(arg, "--radius", &v)) {
      opt.shape.radius = parse_double("--radius", v);
      opt.shape_set = true;
    } else if (consume(arg, "--aug-length", &v)) {
      opt.shape.aug_length = parse_size("--aug-length", v);
      opt.shape_set = true;
    } else if (consume(arg, "--beta", &v)) {
      opt.shape.beta = parse_gen_beta_flag("--beta", v);
      opt.shape_set = true;
    } else if (consume(arg, "--weights", &v)) {
      opt.shape.weights = parse_weights_flag(v);
      opt.shape_set = true;
    } else if (consume(arg, "--max-weight", &v)) {
      opt.shape.max_weight =
          static_cast<Weight>(parse_size("--max-weight", v));
      opt.shape_set = true;
    } else if (consume(arg, "--order", &v)) {
      opt.shape.order = parse_order_flag(v);
      opt.shape_set = true;
    } else if (consume(arg, "--epsilon", &v)) {
      for (const std::string& e : split_list(v)) {
        opt.epsilons.push_back(parse_double("--epsilon", e));
      }
    } else if (consume(arg, "--threads", &v)) {
      for (const std::string& t : split_list(v)) {
        opt.threads.push_back(parse_size("--threads", t));
      }
    } else if (consume(arg, "--seeds", &v)) {
      for (const std::string& s : split_list(v)) {
        opt.seeds.push_back(parse_size("--seeds", s));
      }
    } else if (consume(arg, "--jobs", &v)) {
      opt.jobs = parse_size("--jobs", v);
      opt.jobs_set = true;
    } else if (consume(arg, "--reps", &v)) {
      opt.reps = parse_size("--reps", v);
      opt.reps_set = true;
    } else if (consume(arg, "--warmup", &v)) {
      opt.warmup = parse_size("--warmup", v);
      opt.warmup_set = true;
    } else if (consume(arg, "--delta", &v)) {
      opt.delta = parse_double("--delta", v);
      opt.delta_set = true;
    } else if (consume(arg, "--name", &v)) {
      opt.name = v;
    } else if (arg == "--with-optimum") {
      opt.with_optimum = true;
    } else if (arg == "--summary") {
      opt.summary = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (consume(arg, "--json", &v)) {
      opt.json = true;
      opt.json_path = v;
    } else if (consume(arg, "--trace", &v)) {
      opt.trace_path = v;
    } else {
      usage_error("unknown bench flag '" + arg + "'");
    }
  }
  return opt;
}

int cmd_bench(int argc, char** argv) {
  const BenchOptions opt = parse_bench_flags(argc, argv);
  for (const std::string& algo : opt.algos) require_known_solver(algo);
  for (const std::string& g : opt.gens) require_known_generator(g);

  sweep::SweepSpec spec;
  if (!opt.preset.empty()) {
    if (!sweep::is_known_preset(opt.preset)) {
      usage_error("unknown bench preset '" + opt.preset +
                  "' (known: " + join(sweep::preset_names()) + ")");
    }
    if (!opt.gens.empty() || opt.shape_set) {
      usage_error("--gen and instance shape flags cannot override a "
                  "preset's instances; drop --preset to describe the grid "
                  "by hand");
    }
    spec = sweep::preset(opt.preset);
  } else {
    if (opt.algos.empty() || opt.gens.empty()) {
      usage_error("bench requires --preset=NAME or both --algo=LIST and "
                  "--gen=LIST");
    }
    for (const std::string& g : opt.gens) {
      api::GenSpec inst = opt.shape;
      inst.generator = g;
      spec.instances.push_back(std::move(inst));
    }
  }
  if (!opt.algos.empty()) spec.solvers = opt.algos;
  if (!opt.epsilons.empty()) spec.epsilons = opt.epsilons;
  if (!opt.threads.empty()) spec.threads = opt.threads;
  if (!opt.seeds.empty()) spec.seeds = opt.seeds;
  if (opt.jobs_set) spec.jobs = opt.jobs;
  if (opt.reps_set) spec.repetitions = opt.reps;
  if (opt.warmup_set) spec.warmup = opt.warmup;
  if (opt.delta_set) spec.delta = opt.delta;
  if (opt.with_optimum) spec.with_optimum = true;
  if (!opt.name.empty()) spec.name = opt.name;

  TraceSession trace;
  if (!opt.trace_path.empty()) trace.open(opt.trace_path);
  std::cout << "sweep '" << spec.name
            << "': " << sweep::expand_grid(spec).size() << " cells ("
            << spec.solvers.size() << " solvers x "
            << spec.instances.size() << " instances x "
            << spec.epsilons.size() << " epsilons x " << spec.threads.size()
            << " thread counts x " << spec.seeds.size() << " seeds)\n\n";
  const sweep::SweepResult result = sweep::run_sweep(spec);
  (opt.summary ? result.summary_table() : result.table()).print(std::cout);

  if (opt.json) {
    const std::string path = opt.json_path.empty()
                                 ? "BENCH_" + spec.name + ".json"
                                 : opt.json_path;
    std::ofstream os(path);
    result.print_bench_json(os);
    os.flush();
    if (!os.good()) {
      std::cerr << "error: could not write " << path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << path << "\n";
  }
  return trace.finish();
}

// ---- batch / serve: the service layer's CLI surface ----

struct BatchOptionsCli {
  std::string file_path;
  bool use_stdin = false;
  int listen_port = -1;  ///< serve only: -1 off, 0 ephemeral
  std::size_t max_conns = 64;
  int idle_timeout_s = 0;   ///< serve only: 0 = never close idle conns
  std::string metrics_out;  ///< serve only: windowed stats JSONL path
  service::SchedulerConfig sched;
  std::size_t queue_capacity = 256;
  std::string name = "batch";
  bool summary = false;
  bool json = false;
  std::string json_path;
  std::string trace_path;
};

/// TCP port flag value; `allow_zero` admits 0 ("ephemeral") for --listen.
int parse_port(const std::string& flag, const std::string& value,
               bool allow_zero) {
  const bool numeric =
      !value.empty() && value.size() <= 5 &&
      value.find_first_not_of("0123456789") == std::string::npos;
  const long p = numeric ? std::stol(value) : -1;
  if (p < (allow_zero ? 0 : 1) || p > net::kMaxPort) {
    usage_error(flag + " expects a port in [" + (allow_zero ? "0" : "1") +
                ", 65535], got '" + value + "'");
  }
  return static_cast<int>(p);
}

BatchOptionsCli parse_batch_flags(int argc, char** argv, bool serve) {
  BatchOptionsCli opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (!serve && consume(arg, "--file", &v)) {
      opt.file_path = v;
    } else if (arg == "--stdin") {
      opt.use_stdin = true;
    } else if (serve && consume(arg, "--listen", &v)) {
      opt.listen_port = parse_port("--listen", v, /*allow_zero=*/true);
    } else if (serve && consume(arg, "--max-conns", &v)) {
      opt.max_conns = parse_size("--max-conns", v);
      if (opt.max_conns == 0) usage_error("--max-conns must be >= 1");
    } else if (serve && consume(arg, "--idle-timeout", &v)) {
      const std::size_t secs = parse_size("--idle-timeout", v);
      if (secs > 86400) usage_error("--idle-timeout must be <= 86400");
      opt.idle_timeout_s = static_cast<int>(secs);
    } else if (serve && consume(arg, "--metrics-out", &v)) {
      if (v.empty()) usage_error("--metrics-out expects a file path");
      opt.metrics_out = v;
    } else if (consume(arg, "--jobs", &v)) {
      opt.sched.jobs = parse_size("--jobs", v);
    } else if (consume(arg, "--threads", &v)) {
      opt.sched.threads_override = parse_size("--threads", v);
    } else if (consume(arg, "--cache", &v)) {
      opt.sched.cache_capacity = parse_size("--cache", v);
    } else if (consume(arg, "--queue", &v)) {
      opt.queue_capacity = parse_size("--queue", v);
    } else if (!serve && consume(arg, "--name", &v)) {
      opt.name = v;
    } else if (!serve && arg == "--summary") {
      opt.summary = true;
    } else if (!serve && arg == "--json") {
      opt.json = true;
    } else if (!serve && consume(arg, "--json", &v)) {
      opt.json = true;
      opt.json_path = v;
    } else if (consume(arg, "--trace", &v)) {
      opt.trace_path = v;
    } else {
      usage_error(std::string("unknown ") + (serve ? "serve" : "batch") +
                  " flag '" + arg + "'");
    }
  }
  if (serve && !opt.use_stdin && opt.listen_port < 0) {
    usage_error("serve requires --listen=PORT or --stdin");
  }
  if (!serve && opt.file_path.empty() && !opt.use_stdin) {
    usage_error("batch requires --file=JOBS.jsonl or --stdin");
  }
  if (!serve && !opt.file_path.empty() && opt.use_stdin) {
    usage_error("--file and --stdin are mutually exclusive");
  }
  return opt;
}

int cmd_batch(int argc, char** argv) {
  const BatchOptionsCli opt = parse_batch_flags(argc, argv, /*serve=*/false);
  TraceSession trace;
  if (!opt.trace_path.empty()) trace.open(opt.trace_path);

  std::ifstream file;
  if (!opt.file_path.empty()) {
    file.open(opt.file_path);
    if (!file.good()) {
      usage_error("--file: cannot open '" + opt.file_path + "' for reading");
    }
  }
  std::istream& in = opt.file_path.empty() ? std::cin : file;
  const std::string source =
      opt.file_path.empty() ? "<stdin>" : opt.file_path;

  // Producer thread parses and feeds the bounded queue (backpressure
  // against unbounded piped streams); the main thread joins the worker
  // set via run_stream. A malformed line is a usage error: the producer
  // stops feeding and discards the queued backlog (running jobs finish,
  // nothing new starts), and the process exits 2 without printing
  // partial results.
  service::Scheduler scheduler(opt.sched);
  service::JobQueue queue(opt.queue_capacity);
  std::string parse_error;
  std::thread producer([&] {
    std::string line;
    std::size_t line_no = 0, index = 0;
    while (std::getline(in, line)) {
      ++line_no;
      service::Submission s;
      s.index = index;
      try {
        if (!service::parse_job_line(line, source, line_no, index, &s.job)) {
          continue;
        }
      } catch (const std::exception& e) {
        parse_error = e.what();
        break;
      }
      ++index;
      if (!queue.push(std::move(s))) break;
    }
    queue.close(/*discard_pending=*/!parse_error.empty());
  });

  service::BatchResult result;
  try {
    result = scheduler.run_stream(queue);
  } catch (...) {
    // Unblock and join the producer before unwinding — destroying a
    // joinable std::thread would std::terminate instead of reporting the
    // failure through the normal exit-1 path.
    queue.close(/*discard_pending=*/true);
    producer.join();
    throw;
  }
  producer.join();
  if (!parse_error.empty()) usage_error(parse_error);

  for (const service::JobResult& r : result.results) {
    service::print_job_json(std::cout, r);
  }
  if (opt.summary) {
    result.table().print(std::cerr);
    std::cerr << "\n";
  }
  result.summary_table().print(std::cerr);

  if (opt.json) {
    const std::string path = opt.json_path.empty()
                                 ? "BENCH_" + opt.name + ".json"
                                 : opt.json_path;
    std::ofstream os(path);
    result.print_bench_json(os, opt.name);
    os.flush();
    if (!os.good()) {
      std::cerr << "error: could not write " << path << "\n";
      return 1;
    }
    std::cerr << "wrote " << path << "\n";
  }
  const int trace_rc = trace.finish();
  if (result.failed() > 0) {
    std::cerr << "error: " << result.failed() << " job(s) failed\n";
    return 1;
  }
  return trace_rc;
}

/// The serving net::Server, visible to the SIGINT/SIGTERM handlers.
/// request_drain() is async-signal-safe (one self-pipe write).
std::atomic<net::Server*> g_serve_server{nullptr};

extern "C" void serve_signal_handler(int) {
  net::Server* server = g_serve_server.load(std::memory_order_acquire);
  if (server != nullptr) server->request_drain();
}

int cmd_serve(int argc, char** argv) {
  const BatchOptionsCli opt = parse_batch_flags(argc, argv, /*serve=*/true);
  TraceSession trace;
  if (!opt.trace_path.empty()) trace.open(opt.trace_path);

  // Both transports run the same net::Server connection handler —
  // --stdin is one pre-accepted connection on fd 0/1. Requests feed the
  // bounded JobQueue; results stream back per connection in completion
  // order; the input line "metrics" answers with an obs registry
  // snapshot; malformed lines answer {"error":...,"line":N} instead of
  // killing the session (docs/SERVING.md has the full protocol).
  net::ServerConfig cfg;
  cfg.listen_port = opt.listen_port;
  cfg.stdio = opt.use_stdin;
  cfg.max_conns = opt.max_conns;
  cfg.queue_capacity = opt.queue_capacity;
  cfg.idle_timeout_s = opt.idle_timeout_s;
  cfg.metrics_out = opt.metrics_out;
  cfg.scheduler = opt.sched;
  net::Server server(cfg);
  try {
    server.start();
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  if (opt.listen_port >= 0) {
    // One insertion, so the unit-buffered stream makes one write: a
    // client polling the log for the port never reads half the line.
    std::cerr << "serve: listening on 127.0.0.1:" +
                     std::to_string(server.port()) + "\n";
  }

  // SIGINT/SIGTERM trigger the graceful drain: stop accepting, finish
  // in-flight jobs, flush per-connection results, then fall through to
  // the final metrics snapshot below (stdin EOF takes the same path).
  g_serve_server.store(&server, std::memory_order_release);
  std::signal(SIGPIPE, SIG_IGN);  // dead peers are handled per-write
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  const net::ServeSummary summary = server.run(std::cerr);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_server.store(nullptr, std::memory_order_release);

  // Final metrics snapshot — emitted on EVERY exit path through the
  // drain (signal, socket shutdown, or stdin EOF mid-job).
  std::cerr << "serve: metrics ";
  obs::write_metrics_json(std::cerr);
  std::cerr << "\nserve: done connections=" << summary.connections
            << " requests=" << summary.requests
            << " rejected=" << summary.rejected
            << " parse_errors=" << summary.parse_errors << " cache_hits="
            << summary.batch.cache.hits << " wall_ms="
            << util::json_number(summary.batch.wall_ms_total) << "\n";
  return trace.finish();
}

int cmd_loadgen(int argc, char** argv) {
  net::LoadgenConfig cfg;
  bool have_connect = false;
  bool json = false;
  std::string json_path;
  std::string trace_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (consume(arg, "--connect", &v)) {
      // HOST:PORT, or a bare PORT for 127.0.0.1.
      const std::size_t colon = v.rfind(':');
      if (colon == std::string::npos) {
        cfg.port = parse_port("--connect", v, /*allow_zero=*/false);
      } else {
        cfg.host = v.substr(0, colon);
        if (cfg.host.empty()) {
          usage_error("--connect expects HOST:PORT, got '" + v + "'");
        }
        cfg.port =
            parse_port("--connect", v.substr(colon + 1), /*allow_zero=*/false);
      }
      have_connect = true;
    } else if (consume(arg, "--jobs-file", &v)) {
      cfg.jobs_file = v;
    } else if (consume(arg, "--rate", &v)) {
      cfg.rate = parse_double("--rate", v);
      if (!(cfg.rate > 0.0)) usage_error("--rate must be > 0");
    } else if (consume(arg, "--duration", &v)) {
      cfg.duration_s = parse_double("--duration", v);
      if (!(cfg.duration_s > 0.0)) usage_error("--duration must be > 0");
    } else if (consume(arg, "--connections", &v)) {
      cfg.connections = parse_size("--connections", v);
      if (cfg.connections == 0) usage_error("--connections must be >= 1");
    } else if (consume(arg, "--seed", &v)) {
      cfg.seed = parse_size("--seed", v);
    } else if (consume(arg, "--name", &v)) {
      cfg.name = v;
    } else if (arg == "--json") {
      json = true;
    } else if (consume(arg, "--json", &v)) {
      json = true;
      json_path = v;
    } else if (consume(arg, "--trace", &v)) {
      trace_path = v;
    } else {
      usage_error("unknown loadgen flag '" + arg + "'");
    }
  }
  if (!have_connect) usage_error("loadgen requires --connect=HOST:PORT");
  if (cfg.jobs_file.empty()) {
    usage_error("loadgen requires --jobs-file=JOBS.jsonl");
  }

  TraceSession trace;
  if (!trace_path.empty()) trace.open(trace_path);
  std::signal(SIGPIPE, SIG_IGN);  // a dying server must not kill the client

  net::LoadgenResult result;
  try {
    result = net::run_loadgen(cfg, std::cerr);
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());  // bad config / unusable templates
  }
  if (json) {
    const std::string path =
        json_path.empty() ? "BENCH_" + cfg.name + ".json" : json_path;
    std::ofstream os(path);
    result.print_bench_json(os, cfg.name);
    os.flush();
    if (!os.good()) {
      std::cerr << "error: could not write " << path << "\n";
      return 1;
    }
    std::cerr << "wrote " << path << "\n";
  }
  const int trace_rc = trace.finish();
  if (result.errors > 0 || result.lost > 0) {
    std::cerr << "error: " << result.errors << " error response(s), "
              << result.lost << " lost request(s)\n";
    return 1;
  }
  return trace_rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_help();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
      print_help();
      return 0;
    }
    if (cmd == "list") {
      bool json = false;
      for (int i = 2; i < argc; ++i) {
        if (std::string(argv[i]) == "--json") {
          json = true;
        } else {
          usage_error("unknown flag '" + std::string(argv[i]) +
                      "' (list supports --json)");
        }
      }
      return cmd_list(json);
    }
    if (cmd == "solve") return cmd_solve(argc, argv);
    if (cmd == "bench") return cmd_bench(argc, argv);
    if (cmd == "batch") return cmd_batch(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "loadgen") return cmd_loadgen(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage_error("unknown command '" + cmd + "'");
}
