#!/usr/bin/env python3
"""Repository benchmark: serial simulator cells, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper16_bfgts --seed 1 \
        --seconds 40 --trace 0

It builds perfbench/cells.cpp together with the simulator sources into
.bench_build/ (incremental after the first run), runs the workload's
cells for --seconds seconds in one process, one simulation at a time,
and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured on the untraced pass;
--trace 1 reports the per-layer metrics, measured on the traced pass.
Each cell run is one attempted operation; it fails if the simulation
errors, commits the wrong number of transactions, or dumps statistics
that differ from the cell's first run. The lines before the result give
a digest of the simulated reports, so a change that only speeds up the
simulator can show that every simulated statistic stayed the same.

perfbench/NOTES.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
from statistics import median
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench_cells")
WORKLOADS = ("paper16_bfgts", "labyrinth16_backoff", "scale64_bfgts")

# Longest a cell process may run beyond its measuring window.
CELL_TIMEOUT_SLACK_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runner",
                                       "simulation.h")):
        fail("simulator sources (src/) not found next to perfbench/")
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run_cells(args):
    """Run the cell binary and return its parsed JSON document."""
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, check=False,
                              timeout=args.seconds + CELL_TIMEOUT_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("cell runner timed out")
    if done.returncode != 0:
        fail(f"cell runner exited with code {done.returncode}")
    return json.loads(done.stdout)


def ratio(num, den):
    return num / den if den else 0.0


def stat(cells, group, key):
    """Sum one dumped statistic over the workload's cells."""
    return sum(c["stats"].get("stats", {}).get(group, {}).get(key, 0)
               for c in cells)


def histogram_total(cells, group, key):
    """Sum of the samples of a dumped histogram (count x mean)."""
    total = 0
    for c in cells:
        h = c["stats"].get("stats", {}).get(group, {}).get(key)
        if h:
            total += round(h["count"] * h["mean"])
    return total


def end_to_end(doc):
    cells = doc["cells"]
    untraced = [r for r in doc["rounds"] if not r["traced"]]
    sim_cycles = sum(c["runtime"] for c in cells)
    events = sum(c["events"] for c in cells)
    commits = sum(c["commits"] for c in cells)
    aborts = sum(c["aborts"] for c in cells)
    run_ns = median([r["run_ns"] for r in untraced])
    return {
        "wall_s": (median([r["setup_ns"] + r["run_ns"] for r in untraced])
                   / 1e9, "s"),
        "wall_ns_per_sim_cycle": (run_ns / sim_cycles, "ns/cycle"),
        "events_per_s": (events / (run_ns / 1e9), "1/s"),
        "setup_s": (median([r["setup_ns"] for r in untraced]) / 1e9, "s"),
        "peak_rss_mb": (doc["peak_rss_bytes"] / 1e6, "MB"),
        "sim_mcycles": (sim_cycles / 1e6, "Mcycles"),
        "abort_ratio": (ratio(aborts, commits + aborts), "ratio"),
    }


def per_layer(doc):
    cells = doc["cells"]
    rounds = doc["rounds"]
    traced = [r["layers"] for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]

    def ns(key):
        return (median([layers[key] for layers in traced]), "ns")

    def calls(key):
        # Counts repeat exactly across rounds; the first round's stand.
        return (traced[0][key], "count")

    def count(value):
        return (value, "count")

    tp = sum(c["true_positives"] for c in cells)
    fp = sum(c["false_positives"] for c in cells)
    fn = sum(c["false_negatives"] for c in cells)
    conf_hits = stat(cells, "predictor", "confCache.hits")
    conf_misses = stat(cells, "predictor", "confCache.misses")
    htm_commits = stat(cells, "htm", "commits")
    htm_aborts = stat(cells, "htm", "aborts")
    l1_hits = stat(cells, "mem", "l1.hits")
    l1_misses = stat(cells, "mem", "l1.misses")
    l2_hits = stat(cells, "mem", "l2.hits")
    l2_misses = stat(cells, "mem", "l2.misses")
    traced_wall = median([r["setup_ns"] + r["run_ns"]
                          for r in rounds if r["traced"]])
    untraced_wall = median([r["setup_ns"] + r["run_ns"] for r in untraced])
    return {
        "sim.events": calls("events"),
        "sim.event_queue_ns": ns("event_queue_ns"),
        "runner.unattributed_share": (
            median([ratio(layers["other_ns"], layers["profile_wall_ns"])
                    for layers in traced]), "ratio"),
        "workloads.next_calls": calls("workload_next_calls"),
        "workloads.next_ns": ns("workload_next_ns"),
        "cm.begin_calls": calls("cm_begin_calls"),
        "cm.begin_ns": ns("cm_begin_ns"),
        "cm.commit_calls": calls("cm_commit_calls"),
        "cm.commit_ns": ns("cm_commit_ns"),
        "cm.abort_calls": calls("cm_abort_calls"),
        "cm.abort_ns": ns("cm_abort_ns"),
        "cm.conflict_calls": calls("cm_conflict_calls"),
        "cm.conflict_ns": ns("cm_conflict_ns"),
        "cm.serializations": count(sum(c["serializations"]
                                       for c in cells)),
        "cm.prediction_precision": (ratio(tp, tp + fp), "ratio"),
        "cm.prediction_recall": (ratio(tp, tp + fn), "ratio"),
        "bloom.ns": ns("bloom_ns"),
        "bloom.calls": calls("bloom_calls"),
        "cpu.predictor_ns": ns("predictor_ns"),
        "cpu.predictor_calls": calls("predictor_calls"),
        "cpu.predictions": count(stat(cells, "predictor", "predictions")),
        "cpu.conf_cache_refetches": count(
            stat(cells, "predictor", "confCache.refetches")),
        "cpu.snoop_invalidations": count(
            stat(cells, "predictor", "snoopInvalidations")),
        "cpu.conf_cache_hit_ratio": (
            ratio(conf_hits, conf_hits + conf_misses), "ratio"),
        "htm.conflicts_detected": count(
            stat(cells, "htm", "conflictsDetected")),
        "htm.nack_retries": count(
            histogram_total(cells, "htm", "nackRetries")),
        "htm.undo_appends": count(stat(cells, "htm", "undoLog.appends")),
        "htm.commit_ratio": (
            ratio(htm_commits, htm_commits + htm_aborts), "ratio"),
        "mem.access_ns": ns("mem_ns"),
        "mem.access_calls": calls("mem_calls"),
        "mem.l1_hit_ratio": (ratio(l1_hits, l1_hits + l1_misses), "ratio"),
        "mem.l2_hit_ratio": (ratio(l2_hits, l2_hits + l2_misses), "ratio"),
        "mem.bus_requests": count(stat(cells, "mem", "bus.requests")),
        "mem.bus_queued_cycles": count(
            stat(cells, "mem", "bus.queuedCycles")),
        "os.sched_ns": ns("os_sched_ns"),
        "os.switches": count(stat(cells, "os", "yields")
                             + stat(cells, "os", "preemptions")
                             + stat(cells, "os", "blocks")),
        "os.kernel_cycles": count(stat(cells, "os", "kernelCycles")),
        "trace.overhead_ratio": (ratio(traced_wall, untraced_wall),
                                 "ratio"),
    }


def digest(doc):
    """One line summarising every cell's simulated report."""
    h = hashlib.sha256()
    for c in doc["cells"]:
        report = {k: v for k, v in c.items() if k != "name"}
        h.update(c["name"].encode())
        h.update(json.dumps(report, sort_keys=True,
                            separators=(",", ":")).encode())
    cells = doc["cells"]
    return (f"digest workload={doc['workload']} seed={doc['seed']} "
            f"cells={len(cells)} "
            f"runtime={sum(c['runtime'] for c in cells)} "
            f"commits={sum(c['commits'] for c in cells)} "
            f"aborts={sum(c['aborts'] for c in cells)} "
            f"events={sum(c['events'] for c in cells)} "
            f"sha256={h.hexdigest()}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    doc = run_cells(args)

    for error in doc["errors"]:
        print(f"failed cell: {error}")
    print(digest(doc))
    if args.trace:
        print("note: htm and the runner FSM have no host-time span; "
              "their cost is inside runner.unattributed_share")
        metrics = per_layer(doc)
    else:
        metrics = end_to_end(doc)

    result = {
        "correct": doc["failed"] == 0 and not doc["errors"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
