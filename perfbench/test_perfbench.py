#!/usr/bin/env python3
"""Tests of the benchmark itself, on its smoke mode (tiny sizes).

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that a corrupted result digest fails the gate and counts in failed_frac,
that the same seed reproduces the same result_crc, and that the
benchmark refuses to report from a tree without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra, seed=7, trace=0, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"] + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def crc(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("result_crc "):
            return line.split()[1]
    return None


class MetricNames(unittest.TestCase):
    def check(self, trace, defs):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=trace):
                proc = run(w, trace=trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result(proc)
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                want = {d["name"]: d["unit"] for d in defs}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                for d in defs:
                    self.assertIn("metric %s " % d["name"], proc.stdout)
                self.assertIsNotNone(crc(proc))

    def test_end_to_end_metrics_printed_with_units(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics_printed_with_units(self):
        self.check(1, SPEC["per_layer"])


class Gate(unittest.TestCase):
    def test_corrupted_digest_fails_and_counts(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, "--corrupt-digest", trace=1)
                self.assertEqual(proc.returncode, 1, proc.stdout[-2000:])
                res = result(proc)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertGreater(res["metrics"]["failed_frac"]["value"], 0)

    def test_same_seed_same_crc(self):
        a, b = run("steady-2ctx-cpu"), run("steady-2ctx-cpu")
        c = run("steady-2ctx-cpu", "--holdout")
        self.assertEqual(crc(a), crc(b))
        self.assertNotEqual(crc(a), crc(c))

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-tree")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        proc = subprocess.run(
            [sys.executable, os.path.join(bare, "perfbench", "run.py"),
             "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180, env={**os.environ, "CARGO_TARGET_DIR": ""})
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
