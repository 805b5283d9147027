#!/usr/bin/env python3
"""The one comparator for bfgts-obs-v1 report documents.

Every simulated number in a report is deterministic; the host keys
are not: ``git`` (differs across checkouts) and the wall-clock keys
every bench row carries, ``wall_ns_per_cycle`` and ``events_per_sec``
(bench/bench_util.h). Rows are matched positionally -- benches emit
them in a fixed order. Each later file is checked against the first:

``--exact``      every value equal, host keys aside. No slack and no
                 epsilon: any divergence is a determinism bug (audit
                 on/off and farm-merge gates).
``--tolerance``  numbers within 5% relative, host keys aside; strings
                 and structure exact (bench-baseline drift gates).
``--host-band``  only the wall keys, within an 8x band: fails when
                 wall_ns_per_cycle grows past 8x or events_per_sec
                 falls below 1/8. Rows where either side lacks a wall
                 key, or the baseline's is zero, are skipped.
``--gate K:MIN`` every file: each row carrying K must hold >= MIN,
                 and some row must carry it. Meant for same-process
                 timing ratios (micro_bloom's sig_speedup), which
                 divide out host speed, so the floor is hard.

Usage
-----
  report_diff.py --exact A.json B.json [more.json...]
  report_diff.py --tolerance BENCH_x.json --bench path/to/bench_bin
  report_diff.py --gate sig_speedup:3.0 --bench path/to/micro_bloom

``--bench BIN`` runs BIN with BFGTS_QUICK=1, ``--json`` into a temp
file and each ``--bench-arg``, and appends that document to the
files. To refresh a baseline after an intentional model change, rerun
the bench the same way with ``--json <baseline path>``. Exit 0 on
pass, 1 on any failure.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HOST_KEYS = ("git", "wall_ns_per_cycle", "events_per_sec")
TOLERANCE = 0.05
HOST_BAND = 8.0
MAX_DETAILS = 20


def is_number(value):
    # bool is an int subclass but compares as a flag, exactly.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def walk(path, base, cand, rel_tol, out):
    """Pair two documents structurally, host keys aside, appending
    each divergence beyond @p rel_tol to @p out."""
    if isinstance(base, dict) and isinstance(cand, dict):
        for key in sorted(set(base) | set(cand)):
            if key in HOST_KEYS:
                continue
            if key not in base or key not in cand:
                out.append("%s.%s: present on one side only"
                           % (path, key))
            else:
                walk("%s.%s" % (path, key), base[key], cand[key],
                     rel_tol, out)
    elif isinstance(base, list) and isinstance(cand, list):
        if len(base) != len(cand):
            out.append("%s: %d vs %d entries"
                       % (path, len(base), len(cand)))
            return
        for i, (b, c) in enumerate(zip(base, cand)):
            walk("%s[%d]" % (path, i), b, c, rel_tol, out)
    elif rel_tol > 0 and is_number(base) and is_number(cand):
        # Written as not-within so a NaN on either side fails.
        if not abs(base - cand) <= 1e-9 + rel_tol * max(abs(base),
                                                        abs(cand)):
            rel = (cand - base) / abs(base) if base else float("inf")
            out.append("%s: %r vs %r (drift %+.2f%%)"
                       % (path, base, cand, 100.0 * rel))
    elif base != cand:
        out.append("%s: %r vs %r" % (path, base, cand))


def host_band(base, cand, out):
    wall, rate = HOST_KEYS[1:]
    for i, (b, c) in enumerate(zip(base["rows"], cand["rows"])):
        if not all(k in b and k in c for k in (wall, rate)):
            continue
        if b[wall] <= 0 or b[rate] <= 0:
            continue
        for key, worse in ((wall, c[wall] > b[wall] * HOST_BAND),
                           (rate, c[rate] < b[rate] / HOST_BAND)):
            if worse:
                out.append("row %d: %s %r vs %r, past the %gx band"
                           % (i, key, c[key], b[key], HOST_BAND))


def gate(doc, spec, out):
    key, minimum = spec
    values = [row[key] for row in doc["rows"] if key in row]
    if not values:
        out.append("no row carries %r" % key)
    for value in values:
        if value < minimum:
            out.append("%s = %r, below the %r gate"
                       % (key, value, minimum))


def parse_gate(spec):
    key, _, minimum = spec.partition(":")
    try:
        return key, float(minimum)
    except ValueError:
        raise argparse.ArgumentTypeError("expected KEY:MIN, got %r"
                                         % spec)


def check(mode, spec, paths):
    docs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            docs.append(json.load(fh))
        # The row modes read bench rows; the diffs take any document.
        if mode in ("host-band", "gate") and (
                docs[-1].get("schema") != "bfgts-obs-v1"
                or "rows" not in docs[-1]):
            raise SystemExit("%s: not a bfgts-obs-v1 bench document"
                             % path)
    # A gate reads every document; the diffs pair each with the first.
    first = 0 if mode == "gate" else 1
    if len(docs) <= first:
        raise SystemExit("report_diff: need more than %d document(s)"
                         % first)
    status = 0
    for path, doc in zip(paths[first:], docs[first:]):
        failures = []
        if mode == "gate":
            gate(doc, spec, failures)
        elif mode == "host-band":
            host_band(docs[0], doc, failures)
        else:
            walk("$", docs[0], doc,
                 TOLERANCE if mode == "tolerance" else 0.0, failures)
        label = path if mode == "gate" else "%s vs %s" % (path, paths[0])
        if not failures:
            print("report_diff: %s OK (%s)" % (mode, label))
            continue
        status = 1
        print("report_diff: %s FAIL (%s), %d divergence(s):"
              % (mode, label, len(failures)))
        for failure in failures[:MAX_DETAILS]:
            print("  " + failure)
        if len(failures) > MAX_DETAILS:
            print("  ... and %d more" % (len(failures) - MAX_DETAILS))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare bfgts-obs-v1 reports (see module doc)")
    modes = parser.add_mutually_exclusive_group(required=True)
    for mode in ("exact", "tolerance", "host-band"):
        modes.add_argument("--" + mode, dest="mode",
                           action="store_const", const=mode)
    modes.add_argument("--gate", type=parse_gate, metavar="KEY:MIN")
    parser.add_argument("files", nargs="*",
                        help="baseline first, then candidates")
    parser.add_argument("--bench", metavar="BIN",
                        help="run BIN (BFGTS_QUICK=1) and append its "
                             "--json document to the files")
    parser.add_argument("--bench-arg", action="append", default=[],
                        help="extra argument for --bench (repeatable;"
                             " e.g. --bench-arg=--jobs --bench-arg=8)")
    args = parser.parse_args(argv)
    mode = "gate" if args.gate else args.mode
    if not args.bench:
        return check(mode, args.gate, args.files)
    with tempfile.TemporaryDirectory() as tmp:
        candidate = os.path.join(tmp, "candidate.json")
        subprocess.run([args.bench, "--json", candidate]
                       + args.bench_arg, check=True,
                       env=dict(os.environ, BFGTS_QUICK="1"),
                       stdout=subprocess.DEVNULL)
        return check(mode, args.gate, args.files + [candidate])


if __name__ == "__main__":
    sys.exit(main())
