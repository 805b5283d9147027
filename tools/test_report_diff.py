#!/usr/bin/env python3
"""Self-test for report_diff.py: every mode, on both sides of its bound.

Builds mutated copies of a committed bench baseline in a temp dir and
asserts each mode's verdict:

- exact passes when only host keys change, and fails on a one-ulp
  change to any other value and on a dropped row;
- tolerance passes at 4% drift and fails at 6%;
- host-band fails past 8x and skips rows whose baseline keys are zero
  or missing;
- --gate fails on a missing key and on a value below MIN.

Run via ``ctest -R report_diff_selftest`` or directly.
"""

import contextlib
import copy
import io
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import report_diff  # noqa: E402

BASELINE = os.path.join(HERE, os.pardir, "bench", "baselines",
                        "BENCH_table4_contention.json")


def leaves(value, path=()):
    """Paths of every scalar outside the host keys."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in report_diff.HOST_KEYS:
                yield from leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, path + (i,))
    else:
        yield path


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated(doc, path, change):
    out = copy.deepcopy(doc)
    node = get(out, path[:-1])
    node[path[-1]] = change(node[path[-1]])
    return out


def nudge(value):
    """The smallest change to a scalar: one ulp, one unit, one char."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    return value + "x"


def cases(base):
    """(name, mode arguments, documents, expected exit status)."""
    paths = list(leaves(base))
    # Nonzero numbers: a relative drift of zero is no drift.
    numeric = [p for p in paths
               if report_diff.is_number(get(base, p)) and get(base, p)]
    hosty = copy.deepcopy(base)
    hosty["git"] = "elsewhere"
    for row in hosty["rows"]:
        row["wall_ns_per_cycle"] *= 3.0
        row["events_per_sec"] /= 3.0
    dropped = copy.deepcopy(base)
    dropped["rows"].pop()
    drift4 = base
    for p in numeric:
        drift4 = mutated(drift4, p, lambda v: v * 1.04)
    gated = copy.deepcopy(base)
    gated["rows"][-1]["sig_speedup"] = 3.0
    zero = mutated(base, ("rows", 0, "wall_ns_per_cycle"), lambda v: 0)
    missing = copy.deepcopy(base)
    del missing["rows"][0]["events_per_sec"]

    def row0(key, factor):
        return mutated(base, ("rows", 0, key), lambda v: v * factor)

    yield "exact, host keys only", ["--exact"], [base, hosty, base], 0
    for p in paths:
        yield ("exact, one ulp at %s" % (p,), ["--exact"],
               [base, mutated(base, p, nudge)], 1)
    yield "exact, dropped row", ["--exact"], [base, dropped], 1
    yield "exact, third file", ["--exact"], [base, base, dropped], 1
    yield "tolerance, 4% drift", ["--tolerance"], [base, drift4], 0
    for p in numeric:
        yield ("tolerance, 6%% drift at %s" % (p,), ["--tolerance"],
               [base, mutated(base, p, lambda v: v * 1.06)], 1)
    yield "tolerance, dropped row", ["--tolerance"], [base, dropped], 1
    for key, factor in (("wall_ns_per_cycle", 9.0),
                        ("events_per_sec", 1 / 9.0)):
        yield ("host-band, %s past 8x" % key, ["--host-band"],
               [base, row0(key, factor)], 1)
    yield ("host-band, 7x", ["--host-band"],
           [base, row0("wall_ns_per_cycle", 7.0)], 0)
    for name, baseline in (("zero", zero), ("missing", missing)):
        yield ("host-band, %s baseline key skipped" % name,
               ["--host-band"],
               [baseline, row0("wall_ns_per_cycle", 100.0)], 0)
    gate = ["--gate", "sig_speedup:3.0"]
    yield "gate, at MIN", gate, [gated], 0
    yield "gate, below MIN", ["--gate", "sig_speedup:3.01"], [gated], 1
    yield "gate, missing key", gate, [base], 1


def main():
    with open(BASELINE, "r", encoding="utf-8") as fh:
        base = json.load(fh)
    failures = []
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, mode, docs, want in cases(base):
            paths = []
            for i, doc in enumerate(docs):
                paths.append(os.path.join(tmp, "doc%d.json" % i))
                with open(paths[-1], "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            with contextlib.redirect_stdout(io.StringIO()):
                status = report_diff.main(mode + paths)
            count += 1
            if status != want:
                failures.append("%s: exit %d, want %d"
                                % (name, status, want))
    for failure in failures:
        print("  FAIL " + failure)
    print("report_diff selftest: %d case(s), %d failed"
          % (count, len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
