"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout.  For every workload it checks that each
metric of BENCHMARK.json is printed exactly once with its unit, that names
are well formed, that the result is correct, and that the traced run writes
a trace file.  It is not part of the Tier-1 test run.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_spec_names(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def test_every_workload_prints_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    trace_file = os.path.join(ROOT, "perfbench", "out", f"trace-{workload}-seed0.csv.gz")
                    if os.path.exists(trace_file):
                        os.remove(trace_file)
                    stdout, result = run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertIsInstance(result["failed"], int)
                    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
                    self.assertEqual(list(result["metrics"]), list(wanted))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], wanted[name])
                        self.assertIsInstance(metric["value"], float)
                    if trace:
                        self.assertTrue(os.path.getsize(trace_file) > 0)
                        self.assertIn("trace: ", stdout)


if __name__ == "__main__":
    unittest.main()
