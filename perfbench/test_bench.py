#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 perfbench/test_bench.py

- Audit leg: every workload runs at a tenth of its size with the
  invariant audit engine on, and must report zero violations. It stays
  out of the timed passes because auditing costs about 17x.
- Held-out seed: every workload runs through perfbench/run.py on a seed
  not used while the benchmark was written, with and without tracing.
  Every metric BENCHMARK.json names must be emitted with its unit, and
  every cell must pass.
"""

import json
import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

HELD_OUT_SEED = 104729
AUDIT_SEED = 7
AUDIT_SCALE = "0.1"


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.benchmark = load_benchmark()

    def test_workloads_match_benchmark_json(self):
        names = [w["name"] for w in self.benchmark["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))

    def test_audit_leg_has_no_violations(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                done = subprocess.run(
                    [run.BINARY, "--workload", workload,
                     "--seed", str(AUDIT_SEED), "--seconds", "0",
                     "--trace", "0", "--scale", AUDIT_SCALE, "--audit"],
                    stdout=subprocess.PIPE, check=True)
                doc = json.loads(done.stdout)
                self.assertEqual(doc["errors"], [])
                self.assertEqual(doc["failed"], 0)
                self.assertEqual(doc["attempted"], len(doc["cells"]))
                self.assertGreater(doc["audit_checks"], 0)
                self.assertEqual(doc["audit_violations"], 0)

    def test_held_out_seed_emits_every_metric(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.benchmark[group]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    done = subprocess.run(
                        [sys.executable,
                         os.path.join(run.ROOT, "perfbench", "run.py"),
                         "--workload", workload,
                         "--seed", str(HELD_OUT_SEED), "--seconds", "1",
                         "--trace", str(trace)],
                        stdout=subprocess.PIPE, text=True, check=True)
                    lines = done.stdout.strip().splitlines()
                    self.assertTrue(any(line.startswith("digest ")
                                        for line in lines[:-1]))
                    result = json.loads(lines[-1])
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
