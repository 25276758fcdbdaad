#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at a tiny scale, one
untraced and one traced run, each result line checked against the metric
names and units in BENCHMARK.json. Also checks that the benchmark refuses
to run without the program's sources. Takes a few minutes.

    python3 perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SCALE = "0.12"


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", TINY_SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):

    def check_result(self, workload, trace, metrics):
        p = run(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], p.stderr[-3000:])
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return result["metrics"]

    def test_every_workload_untraced_and_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                e2e = self.check_result(w["name"], 0, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(e2e[m["name"]]["value"], 0, m["name"])
            with self.subTest(workload=w["name"], trace=1):
                layers = self.check_result(w["name"], 1, SPEC["per_layer"])
                self.assertGreater(layers["eval.accuracy.calls"]["value"], 0)
                if w["name"].startswith("baselines"):
                    for name, v in layers.items():
                        if name.startswith(("fusion.", "match.daa")) and name.endswith(".calls"):
                            self.assertEqual(v["value"], 0, name)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(ROOT / "perfbench", Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = run(SPEC["workloads"][0]["name"], 0, cwd=d)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
