#!/usr/bin/env python3
"""Append one entry per CI run to the committed bench trajectory
(ISSUE 6 satellite).

Usage:
  append_bench_history.py HISTORY.json BENCH1.json [BENCH2.json ...]
      [--sha=REV] [--date=YYYY-MM-DD] [--max-entries=N]

Reads schema-versioned BENCH JSON documents (sweep or batch flavour —
both carry "schema_version" and "results") and appends one entry

  {"sha": ..., "date": ..., "benches": {
      "<bench name>": {"cells": N, "wall_ms_total": T,
                        "latency_ms_p95": P, "latency_ms_p99": Q}}}

Documents marked "kind": "trace_report" (scripts/trace_report.py --json)
also get a "segments": {"<segment id>": median_ms} map in their summary
— the per-request critical path (admission / queue wait / solve /
response write) of the CI serving smoke, tracked segment by segment.

A perfbench result document (the last stdout line of perfbench/run.py:
{"correct", "attempted", "failed", "metrics"}) is recorded under the
bench name "perfbench/<file name without extension>". So

  python3 perfbench/run.py --workload weighted-er | tail -n 1 > weighted-er.json

records its metrics under "perfbench/weighted-er" as

  {"correct": true, "attempted": A, "failed": F,
   "metrics": {"<metric>": value, ...}}

to HISTORY.json ({"schema_version": 1, "entries": [...]}; created when
missing). Per bench:

  - wall_ms_total: the batch document's service.wall_ms_total when
    present (true batch wall clock), otherwise the sum of per-cell
    median wall ms — the serial-work trajectory of a sweep grid;
  - latency_ms_p95 / latency_ms_p99: the 95th / 99th percentile
    (nearest-rank) of per-cell / per-job median wall ms across
    non-skipped entries. For loadgen documents the per-template median
    IS end-to-end serving latency, so these track the tail of the
    serving path (ISSUE 8).

Wall clock is noisy across runners, so the trajectory is a trend line,
not a gate — the exact-counter gate lives in check_bench_regression.py.
The revision is taken from --sha, else $GITHUB_SHA, else `git rev-parse
--short HEAD`, else "unknown". --max-entries (default 500) caps the file
by dropping the oldest entries.
"""

import datetime
import json
import os
import subprocess
import sys


def percentile(values, pct):
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, -(-pct * len(ordered) // 100) - 1)  # nearest-rank, 0-based
    return ordered[rank]


def summarize_perfbench(path, doc):
    name = os.path.splitext(os.path.basename(path))[0]
    return "perfbench/" + name, {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: m["value"] for k, m in doc["metrics"].items()},
    }


def summarize(path):
    with open(path) as f:
        doc = json.load(f)
    if "metrics" in doc and "correct" in doc:
        return summarize_perfbench(path, doc)
    if "schema_version" not in doc or "results" not in doc:
        raise SystemExit(f"{path}: not a BENCH JSON or perfbench document "
                         "(missing schema_version/results or metrics)")
    medians = [r["wall_ms"]["median"] for r in doc["results"]
               if not r.get("skipped") and "wall_ms" in r]
    service = doc.get("service", {})
    total = service.get("wall_ms_total", sum(medians))
    summary = {
        "cells": len(doc["results"]),
        "wall_ms_total": round(total, 3),
        "latency_ms_p95": round(percentile(medians, 95), 3),
        "latency_ms_p99": round(percentile(medians, 99), 3),
    }
    if doc.get("kind") == "trace_report":
        # Critical-path documents (trace_report.py --json): one named
        # line per request segment, so a queue-wait regression is visible
        # separately from a solve or response-write regression.
        summary["segments"] = {
            r["id"]: round(r["wall_ms"]["median"], 4)
            for r in doc["results"]
            if not r.get("skipped") and "wall_ms" in r
        }
    return doc.get("bench", os.path.basename(path)), summary


def resolve_sha(flag_value):
    if flag_value:
        return flag_value
    if os.environ.get("GITHUB_SHA"):
        return os.environ["GITHUB_SHA"][:12]
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv):
    sha = None
    date = None
    max_entries = 500
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--sha="):
            sha = arg[len("--sha="):]
        elif arg.startswith("--date="):
            date = arg[len("--date="):]
        elif arg.startswith("--max-entries="):
            max_entries = int(arg[len("--max-entries="):])
        else:
            paths.append(arg)
    if len(paths) < 2:
        raise SystemExit(__doc__)

    history_path, bench_paths = paths[0], paths[1:]
    if os.path.exists(history_path):
        with open(history_path) as f:
            history = json.load(f)
        if history.get("schema_version") != 1 or "entries" not in history:
            raise SystemExit(f"{history_path}: not a trajectory file")
    else:
        history = {"schema_version": 1, "entries": []}

    entry = {
        "sha": resolve_sha(sha),
        "date": date or datetime.date.today().isoformat(),
        "benches": dict(summarize(p) for p in bench_paths),
    }
    history["entries"].append(entry)
    history["entries"] = history["entries"][-max_entries:]

    with open(history_path, "w") as f:
        json.dump(history, f, indent=1)
        f.write("\n")

    names = ", ".join(sorted(entry["benches"]))
    print(f"appended {entry['sha']} ({names}) -> {history_path} "
          f"[{len(history['entries'])} entries]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
