#!/usr/bin/env python3
"""wmatch benchmark: two solver workloads and one serving workload.

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1]
  python3 perfbench/run.py --workload all [--seconds S]

NAME is weighted-er, unit-bipartite or serve-mixed (perfbench/README.md
says why each exists and defines every metric). Run from the repository
root. The first run configures and builds the program from source into
.bench_build/ (CMake, Release); later runs rebuild incrementally.

With --trace 0 a run reports the end-to-end metrics, with --trace 1 the
per-layer metrics, from a separate traced run. A table of every metric
with its unit and sample count goes to stderr; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
code is 1 when any output check failed. `--workload all` runs every
workload and prints the tables to stdout.
"""

import argparse
import json
import os
import random
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
PERF = os.path.join(BUILD, "wmatch_perf")
CLI = os.path.join(BUILD, "wmatch", "wmatch_cli")

WORKLOADS = ("weighted-er", "unit-bipartite", "serve-mixed")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 35

# serve-mixed: the server and the open-loop client.
TEMPLATES = os.path.join(BENCH, "serve_mixed.jsonl")
SERVER_FLAGS = ["--listen=0", "--jobs=4", "--threads=1"]
CONNECTIONS = 4
RATE_RPS = 40.0
CHEAP_REPEAT = 2  # cheap templates per block, per reduction template
SPIN_S = 0.003  # the client polls instead of sleeping this close to a due time
HEAVY = ("reduction-hk", "reduction-mpc")
SETUP_REPS = 9
DRAIN_S = 60.0
COUNTERS = ("passes", "rounds", "memory_peak_words", "communication_words",
            "bb_invocations", "bb_max_invocation_cost")

class BenchError(Exception):
    """A failure that must end the run without a result line."""


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "wmatch_perf",
                  "wmatch_cli", "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            raise BenchError("build failed: " + " ".join(cmd))


def percentile(values, q):
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    s = sorted(values)
    rank = max(1, -(-q * len(s) // 100))
    return s[min(int(rank), len(s)) - 1]


def median(values):
    return statistics.median(values) if values else 0.0


class Result:
    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics = {}  # name -> (value, unit, samples)

    def add(self, name, value, unit, samples):
        self.metrics[name] = (float(value), unit, samples)

    def check(self, ok, what):
        if not ok:
            self.correct = False
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def document(self):
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u, _) in self.metrics.items()}}

    def table(self, workload):
        lines = [f"{workload}: correct={self.correct} "
                 f"attempted={self.attempted} failed={self.failed}"]
        for name, (value, unit, samples) in self.metrics.items():
            lines.append(f"  {name:<30} {value:>14.6g} {unit:<7} "
                         f"n={samples}")
        return "\n".join(lines)


# ---- Solver workloads: wmatch_perf does the work ----

def run_solver(workload, seed, seconds, trace):
    p = subprocess.run([PERF, "solver", workload, str(seed), str(seconds),
                        str(trace)], stdout=subprocess.PIPE, text=True,
                       timeout=170)
    if p.returncode != 0:
        raise BenchError(f"wmatch_perf exited {p.returncode}")
    doc = json.loads(p.stdout.strip().splitlines()[-1])
    res = Result()
    res.correct = doc["correct"]
    res.attempted = doc["attempted"]
    res.failed = doc["failed"]
    for name, m in doc["metrics"].items():
        res.add(name, m["value"], m["unit"], doc["samples"][name])
    return res


# ---- serve-mixed: a wmatch_cli serve process and an open-loop client ----

def load_templates():
    templates = []
    with open(TEMPLATES) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                templates.append(json.loads(line))
    return templates


def expected_answers():
    """Counters, matching and optimum of a local api::solve per template."""
    p = subprocess.run([PERF, "expect", TEMPLATES], stdout=subprocess.PIPE,
                       text=True, timeout=120)
    if p.returncode != 0:
        raise BenchError("wmatch_perf expect failed")
    return {d["id"]: d for d in map(json.loads, p.stdout.splitlines())}


class Server:
    """A `wmatch_cli serve --listen=0` process; stop() drains it."""

    def __init__(self, trace_file=None):
        cmd = [CLI, "serve"] + SERVER_FLAGS
        if trace_file:
            cmd.append("--trace=" + trace_file)
        self.log_path = os.path.join(BUILD, "serve.log")
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=self.log)
        self.port = self._wait_port()

    def _wait_port(self):
        deadline = time.monotonic() + 30.0
        marker = "listening on 127.0.0.1:"
        while time.monotonic() < deadline:
            with open(self.log_path) as f:
                for line in f:
                    if marker in line:
                        return int(line.split(marker)[1].split()[0])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise BenchError("server did not start")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Client:
    """Open-loop client: requests go out at their due times over
    CONNECTIONS sockets whatever the server does; responses are matched by
    id. Latency runs from a request's due time to its response."""

    def __init__(self, port):
        self.sel = selectors.DefaultSelector()
        self.socks = []
        for i in range(CONNECTIONS):
            s = socket.create_connection(("127.0.0.1", port))
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(s)
            self.sel.register(s, selectors.EVENT_READ, i)
        self.buf = [b""] * CONNECTIONS

    def close(self):
        for s in self.socks:
            self.sel.unregister(s)
            s.close()
        self.sel.close()

    def _read(self, timeout, on_line):
        for key, _ in self.sel.select(max(0.0, timeout)):
            i = key.data
            data = key.fileobj.recv(1 << 16)
            if not data:
                raise BenchError("server closed a connection")
            now = time.perf_counter()
            self.buf[i] += data
            *lines, self.buf[i] = self.buf[i].split(b"\n")
            for line in lines:
                on_line(json.loads(line), now)

    def control(self, line):
        """Sends a control line on connection 0 and returns its answer,
        skipping late job responses (which carry an id)."""
        got = []
        self.socks[0].sendall(line.encode() + b"\n")
        deadline = time.monotonic() + 10.0
        while not got and time.monotonic() < deadline:
            self._read(0.5, lambda doc, now: "id" in doc or got.append(doc))
        if not got:
            raise BenchError(f"no answer to control line {line!r}")
        return got[0]

    def run(self, schedule, templates, traced):
        """Sends schedule [(due_s, template_index)] and collects answers.
        Returns {k: (due, sent, done, response)}; done is None when lost."""
        out = {}
        t0 = time.perf_counter() + 0.01
        pending = set()

        def on_line(doc, now):
            rid = str(doc.get("id", ""))
            k = int(rid[1:]) if rid[1:].isdigit() else -1
            if k not in pending:
                raise BenchError(f"unexpected response {doc!r:.200}")
            pending.discard(k)
            due, sent, _, _ = out[k]
            out[k] = (due, sent, now, doc)

        k = 0
        while k < len(schedule) or pending:
            now = time.perf_counter()
            while k < len(schedule) and t0 + schedule[k][0] <= now:
                job = dict(templates[schedule[k][1]], id=f"r{k}")
                if traced:
                    job["trace"] = {"id": k + 1, "sent_ns": time.monotonic_ns()}
                self.socks[k % CONNECTIONS].sendall(
                    json.dumps(job, separators=(",", ":")).encode() + b"\n")
                out[k] = (t0 + schedule[k][0], time.perf_counter(), None, None)
                pending.add(k)
                k += 1
            if k < len(schedule):
                # epoll rounds a timeout up to whole milliseconds and wakes
                # late: sleep until SPIN_S before the due time, then poll.
                timeout = t0 + schedule[k][0] - time.perf_counter() - SPIN_S
            else:
                timeout = t0 + schedule[-1][0] + DRAIN_S - time.perf_counter()
                if timeout <= 0:
                    break  # whatever is still pending is lost
            self._read(timeout, on_line)
        return out


def make_schedule(seed, seconds, templates):
    """Poisson arrivals at RATE_RPS for `seconds`. Templates come in blocks
    holding each reduction template once and each cheap one CHEAP_REPEAT
    times, in a fresh seeded order per block, so every block has the same
    mix."""
    rng = random.Random(seed)
    block = [i for i, t in enumerate(templates)
             for _ in range(1 if t["algo"] in HEAVY else CHEAP_REPEAT)]
    schedule, t, order = [], 0.0, []
    while True:
        t += rng.expovariate(RATE_RPS)
        if t >= seconds:
            return schedule
        if not order:
            order = block[:]
            rng.shuffle(order)
        schedule.append((t, order.pop()))


def warm_jobs(templates):
    """One cheap `greedy` job per distinct instance of the templates: after
    them the instance cache holds every instance the load asks for."""
    jobs = {}
    for t in templates:
        key = json.dumps([t["gen"], t["seed"]], sort_keys=True)
        jobs.setdefault(key, {"algo": "greedy", "gen": t["gen"],
                              "seed": t["seed"]})
    return list(jobs.values())


def start_warm_server(templates, trace_file=None):
    """Starts a server and warms its instance cache. Returns (server,
    client, seconds taken)."""
    t0 = time.perf_counter()
    server = Server(trace_file)
    client = None
    try:
        client = Client(server.port)
        jobs = warm_jobs(templates)
        warm = client.run([(0.0, i) for i in range(len(jobs))], jobs,
                          traced=False)
        if any(v[3] is None or "error" in v[3] for v in warm.values()):
            raise BenchError("warm-up request failed")
    except BaseException:
        if client:
            client.close()
        server.stop()
        raise
    return server, client, time.perf_counter() - t0


def histogram_delta(before, after, name):
    """(count, sum) of histogram `name` between two metrics snapshots."""
    h0 = before["histograms"].get(name, {"count": 0, "sum": 0.0})
    h1 = after["histograms"].get(name, {"count": 0, "sum": 0.0})
    return h1["count"] - h0["count"], h1["sum"] - h0["sum"]


def counter_delta(before, after, name):
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def serve_phase(templates, expect, schedule, res, trace_file=None):
    """One measured phase on a fresh warm server. Checks every response and
    returns a dict of what the phase measured."""
    server, client, setup_s = start_warm_server(templates, trace_file)
    try:
        before = client.control("metrics")
        out = client.run(schedule, templates, traced=trace_file is not None)
        after = client.control("metrics")
        rss = server.peak_rss_mb()
    finally:
        client.close()
        server.stop()

    latency, cheap, lag = [], [], []
    solve = {"cheap": [], "heavy": [], "mpc": []}
    ratios, passes, words = [], [], []
    for k, (due, sent, done, doc) in sorted(out.items()):
        t = templates[schedule[k][1]]
        res.attempted += 1
        lag.append((sent - due) * 1000.0)
        if doc is None or "error" in doc or doc.get("skipped"):
            res.failed += 1
            # A failed request misses every latency limit: it counts as
            # waiting as long as a request may before it is declared lost.
            latency.append(DRAIN_S * 1000.0)
            if t["algo"] not in HEAVY:
                cheap.append(DRAIN_S * 1000.0)
            continue
        want = expect[t["id"]]
        same = all(doc["cost"][c] == want[c] for c in COUNTERS) and \
            doc["matching"]["size"] == want["size"] and \
            doc["matching"]["weight"] == want["weight"] and want["valid"]
        res.check(same, f"response r{k} ({t['id']}) differs from a local "
                        "api::solve of its template")
        ms = (done - due) * 1000.0
        latency.append(ms)
        wall = doc["cost"]["wall_ms"]
        if t["algo"] in HEAVY:
            solve["heavy"].append(wall)
            ratio = doc["matching"]["weight"] / want["optimum"]
            res.check(ratio >= 1.0 - t["epsilon"],
                      f"{t['id']} ratio {ratio:.4f} below 1-eps")
            if t["algo"] == "reduction-mpc":
                solve["mpc"].append(wall)
            else:
                # The model metrics come from the streaming reduction only:
                # MPC reports per-machine words and rounds, not passes.
                ratios.append(ratio)
                passes.append(doc["cost"]["passes"])
                words.append(doc["cost"]["memory_peak_words"])
        else:
            solve["cheap"].append(wall)
            cheap.append(ms)
    hits = counter_delta(before, after, "cache.hits")
    misses = counter_delta(before, after, "cache.misses")
    qcount, qsum = histogram_delta(before, after, "service.queue_wait_ms")
    return {"setup_s": setup_s, "latency": latency, "cheap": cheap,
            "lag": lag, "solve": solve, "ratios": ratios, "passes": passes,
            "words": words, "rss": rss,
            "cache_hit_share": hits / max(1, hits + misses),
            "rejects": counter_delta(before, after, "net.rejected_overload"),
            "queue_wait_ms": qsum / max(1, qcount)}


def run_serve(seed, seconds, trace):
    templates = load_templates()
    expect = expected_answers()
    res = Result()
    if not trace:
        # Setup: server start + cache warm, median of SETUP_REPS. The
        # measured phase runs on one of the servers; the other starts come
        # before and after it, because the host's speed drifts over seconds.
        def timed_setup():
            server, client, s = start_warm_server(templates)
            client.close()
            server.stop()
            return s
        setups = [timed_setup() for _ in range(SETUP_REPS // 2)]
        schedule = make_schedule(seed, seconds, templates)
        p = serve_phase(templates, expect, schedule, res)
        setups.append(p["setup_s"])
        setups += [timed_setup() for _ in range(SETUP_REPS - len(setups))]
        n = len(p["latency"])
        res.add("setup_s", median(setups), "s", len(setups))
        res.add("solve_s", median(p["solve"]["heavy"]) / 1000.0, "s",
                len(p["solve"]["heavy"]))
        res.add("latency_p50_ms", percentile(p["latency"], 50), "ms", n)
        res.add("latency_p95_ms", percentile(p["latency"], 95), "ms", n)
        res.add("weight_ratio", median(p["ratios"]), "ratio",
                len(p["ratios"]))
        res.add("model_cost", median(p["passes"]), "passes",
                len(p["passes"]))
        res.add("memory_peak_words", median(p["words"]), "words",
                len(p["words"]))
        res.add("peak_rss_mb", p["rss"], "MB", 1)
        res.add("ok_share", (res.attempted - res.failed) / res.attempted,
                "ratio", res.attempted)
        return res

    # Traced: the same schedule on an untraced and on a traced server
    # (client trace contexts on), half of the window each.
    schedule = make_schedule(seed, seconds / 2.0, templates)
    plain = serve_phase(templates, expect, schedule, res)
    trace_file = os.path.join(BUILD, "serve.trace.json")
    report_file = os.path.join(BUILD, "serve.trace_report.json")
    traced = serve_phase(templates, expect, schedule, res, trace_file)
    p = subprocess.run([sys.executable,
                        os.path.join(ROOT, "scripts", "trace_report.py"),
                        trace_file, "--json=" + report_file],
                       stdout=subprocess.DEVNULL, timeout=120)
    if p.returncode != 0:
        raise BenchError("trace_report.py failed")
    with open(report_file) as f:
        report = json.load(f)
    seg = {r["id"]: r["wall_ms"]["median"] for r in report["results"]}
    n_req = report["requests"]["complete"]

    res.add("net.admission_ms", seg["admission"], "ms", n_req)
    res.add("service.queue_wait_ms", plain["queue_wait_ms"], "ms",
            len(plain["latency"]))
    for kind in ("cheap", "heavy", "mpc"):
        res.add(f"service.solve_ms.{kind}", median(plain["solve"][kind]),
                "ms", len(plain["solve"][kind]))
    res.add("net.write_ms", seg["write"], "ms", n_req)
    res.add("client.lag_ms", percentile(plain["lag"], 95), "ms",
            len(plain["lag"]))
    res.add("client.cheap_latency_p50_ms", percentile(plain["cheap"], 50),
            "ms", len(plain["cheap"]))
    res.add("service.cache_hit_share", plain["cache_hit_share"], "ratio",
            len(plain["latency"]))
    res.add("net.rejects", plain["rejects"], "count", len(plain["latency"]))
    res.add("obs.trace_overhead",
            percentile(traced["latency"], 50) /
            percentile(plain["latency"], 50), "ratio",
            len(traced["latency"]))
    return res


def run_workload(workload, seed, seconds, trace):
    """Runs one workload and returns its result with exactly the metrics
    BENCHMARK.json declares for the mode, in declared order. A layer the
    workload does not enter reports 0: the solver workloads bypass
    service/net, and the solver layers run inside the server on
    serve-mixed."""
    if workload == "serve-mixed":
        res = run_serve(seed, seconds, trace)
    else:
        res = run_solver(workload, seed, seconds, trace)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    extra = set(res.metrics) - {m["name"] for m in declared}
    if extra:
        raise BenchError(f"undeclared metrics: {sorted(extra)}")
    metrics = {}
    for m in declared:
        if m["name"] in res.metrics:
            metrics[m["name"]] = res.metrics[m["name"]]
        elif trace:
            metrics[m["name"]] = (0.0, m["unit"], 0)
        else:
            raise BenchError(f"missing end-to-end metric {m['name']}")
    res.metrics = metrics
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        build()
        if args.workload == "all":
            ok = True
            for w in WORKLOADS:
                res = run_workload(w, args.seed, args.seconds, args.trace)
                print(res.table(w), flush=True)
                ok = ok and res.correct
            return 0 if ok else 1
        res = run_workload(args.workload, args.seed, args.seconds,
                           args.trace)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(res.table(args.workload), file=sys.stderr)
    print(json.dumps(res.document()), flush=True)
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
