#!/usr/bin/env python3
"""Per-request critical-path analytics over a --trace=FILE document
(ISSUE 10): turns a serve-side (or merged client+server) Chrome trace
into the breakdown operators actually ask for — where did each
request's time go between admission, queue, solve, and response write —
plus a per-span-name aggregate table.

Usage:
  trace_report.py TRACE.json [--json=FILE] [--name=ID]

The per-request breakdown matches the four serve-side span kinds by
their args.arg submission index (every request admitted by net::Server
carries one):

  admission   net.admit duration — parse + queue push on the poll thread
  queue_wait  gap from net.admit end to service.job begin — time the
              submission sat in the bounded JobQueue
  solve       service.solve duration — repetitions of the actual solver
  write       net.request duration — serializing + writing the response

Requests missing any stage (rejected at admission, still in flight when
the trace stopped) are skipped and counted. Output: a per-segment
summary (count / median / p95 / max ms) on stdout, the per-span-name
aggregate table, and with --json a schema-versioned BENCH-shaped
document {"schema_version": 1, "kind": "trace_report", "bench": ID,
"results": [{"id": "<segment>", "wall_ms": {"median": ..., "min": ...},
"skipped": false}, ...]} that scripts/append_bench_history.py folds
into the trajectory as a "segments" map.

Exits 1 when the trace is malformed or contains no complete request
(an empty breakdown in CI means the serving smoke lost its spans — a
regression, not a soft skip).
"""

import json
import sys
from collections import defaultdict


def fail(msg):
    print(f"trace_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def percentile(sorted_values, q):
    """Nearest-rank percentile of a sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-q * len(sorted_values) // 100))  # ceil
    return sorted_values[min(rank, len(sorted_values)) - 1]


def pair_spans(events):
    """B/E stack pairing per (pid, tid) -> list of completed spans
    (name, arg, start_us, end_us)."""
    stacks = defaultdict(list)
    spans = []
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        key = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            arg = ev.get("args", {}).get("arg")
            stacks[key].append((ev.get("name", ""), arg, ev.get("ts", 0)))
        elif ph == "E":
            if not stacks[key]:
                fail(f"event {i}: end event with no open span on "
                     f"tid {key[1]}")
            name, arg, start = stacks[key].pop()
            spans.append((name, arg, start, ev.get("ts", 0)))
    return spans


SEGMENTS = ("admission", "queue_wait", "solve", "write")


def main(argv):
    json_path = None
    name = "trace_report"
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--json="):
            json_path = arg[len("--json="):]
        elif arg.startswith("--name="):
            name = arg[len("--name="):]
        else:
            paths.append(arg)
    if len(paths) != 1:
        raise SystemExit(__doc__)

    try:
        with open(paths[0]) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{paths[0]}: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("traceEvents is not a list")

    spans = pair_spans(events)

    # Index the four request stages by submission index. A span name can
    # recur per index (solve retries do not exist today, but be safe):
    # keep the first occurrence.
    by_stage = {n: {} for n in ("net.admit", "service.job",
                                "service.solve", "net.request")}
    agg = defaultdict(list)  # span name -> durations (ms)
    for span_name, arg, start, end in spans:
        agg[span_name].append((end - start) / 1000.0)
        if span_name in by_stage and isinstance(arg, int):
            by_stage[span_name].setdefault(arg, (start, end))

    segments = {seg: [] for seg in SEGMENTS}
    complete = 0
    incomplete = 0
    for idx, (admit_start, admit_end) in sorted(by_stage["net.admit"].items()):
        job = by_stage["service.job"].get(idx)
        solve = by_stage["service.solve"].get(idx)
        write = by_stage["net.request"].get(idx)
        if job is None or solve is None or write is None:
            incomplete += 1
            continue
        complete += 1
        segments["admission"].append((admit_end - admit_start) / 1000.0)
        # Clamp: the job span begins on a worker whose clock read can
        # land within a microsecond of the admit end.
        segments["queue_wait"].append(max(0.0, (job[0] - admit_end) / 1000.0))
        segments["solve"].append((solve[1] - solve[0]) / 1000.0)
        segments["write"].append((write[1] - write[0]) / 1000.0)

    if complete == 0:
        fail("no complete request (net.admit + service.job + "
             "service.solve + net.request chain) in the trace")

    print(f"trace_report: {complete} complete request(s), "
          f"{incomplete} incomplete")
    print(f"{'segment':<12} {'count':>6} {'median_ms':>10} "
          f"{'p95_ms':>10} {'max_ms':>10}")
    results = []
    for seg in SEGMENTS:
        values = sorted(segments[seg])
        median = percentile(values, 50)
        print(f"{seg:<12} {len(values):>6} {median:>10.4f} "
              f"{percentile(values, 95):>10.4f} {values[-1]:>10.4f}")
        results.append({"id": seg, "wall_ms": {"median": round(median, 4),
                                               "min": round(values[0], 4)},
                        "skipped": False})

    print(f"\n{'span':<16} {'count':>6} {'total_ms':>10} {'mean_ms':>10}")
    for span_name in sorted(agg):
        values = agg[span_name]
        total = sum(values)
        print(f"{span_name:<16} {len(values):>6} {total:>10.3f} "
              f"{total / len(values):>10.4f}")

    if json_path:
        out = {
            "schema_version": 1,
            "kind": "trace_report",
            "bench": name,
            "requests": {"complete": complete, "incomplete": incomplete},
            "results": results,
        }
        try:
            with open(json_path, "w") as f:
                json.dump(out, f)
                f.write("\n")
        except OSError as e:
            fail(f"{json_path}: {e}")
        print(f"\nwrote {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
