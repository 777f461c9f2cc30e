#!/usr/bin/env python3
"""Tests of the benchmark itself, at a smoke size (both sizes / 32).

    python3 perfbench/test_perfbench.py

The first test to run builds the harness through run.py if needed.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
HARNESS = os.path.join(ROOT, ".bench_build", "perfbench", "uvmbench")
WORKLOADS = ("random-oversub", "random-oversub-gpudriven", "sgemm-resident")
SMOKE = ["--scale", "32", "--seconds", "0"]


def run(workload, *extra, cwd=ROOT, script=RUN):
    out = subprocess.run([sys.executable, script, "--workload", workload,
                          *SMOKE, *extra], cwd=cwd, capture_output=True,
                         text=True, timeout=900)
    return out.returncode, out.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MetricsTest(unittest.TestCase):
    def check_metrics(self, lines, declared):
        printed = {}
        for line in lines:
            m = re.fullmatch(r"metric (\S+) (\S+) (\S+)", line)
            if m:
                printed[m.group(1)] = m.group(3)
        got = result(lines)["metrics"]
        want = {m["name"]: m["unit"] for m in declared}
        self.assertEqual({k: v["unit"] for k, v in got.items()}, want)
        for name, unit in want.items():
            self.assertEqual(printed.get(name), unit, name)
            self.assertIsInstance(got[name]["value"], (int, float))

    def test_every_end_to_end_metric_prints_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run(w, "--trace", "0")
                self.assertEqual(code, 0)
                self.check_metrics(lines, spec()["end_to_end"])
                # Exact metrics kept out of the timed set still print.
                self.assertTrue(any(l.startswith("metric sim_time_ms ")
                                    for l in lines))
                self.assertIn("metric error_rate 0 ratio", lines)
                self.assertTrue(lines[0].startswith("context "))

    def test_every_layer_metric_prints_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run(w, "--trace", "1")
                self.assertEqual(code, 0)
                self.check_metrics(lines, spec()["per_layer"])


class CorrectnessTest(unittest.TestCase):
    def test_traced_and_untraced_digests_agree(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run(w, "--trace", "1", "--seed", "7")
                self.assertEqual(code, 0)
                r = result(lines)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 4)
                d = next(l for l in lines if l.startswith("digest "))
                m = re.match(r"digest untraced=(\w+) traced=(\w+)", d)
                self.assertEqual(m.group(1), m.group(2))

    def test_wrong_golden_counts_as_failure(self):
        # run.py builds the harness; the harness itself takes the golden.
        code, _ = run("sgemm-resident")
        self.assertEqual(code, 0)
        out = subprocess.run([HARNESS, "--workload", "sgemm-resident", *SMOKE,
                              "--expect-digest", "0123456789abcdef"],
                             capture_output=True, text=True, timeout=300)
        code, lines = out.returncode, out.stdout.splitlines()
        self.assertEqual(code, 1)
        r = result(lines)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], r["attempted"])

    def test_default_seed_is_pinned_for_every_workload(self):
        with open(os.path.join(HERE, "goldens.json")) as f:
            goldens = json.load(f)
        for w in WORKLOADS:
            self.assertRegex(goldens[w]["42"], r"^[0-9a-f]{16}$", w)

    def test_exits_nonzero_without_the_program(self):
        # Only BENCHMARK.json and perfbench/: nothing to build the library
        # from, so no result may be printed.
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run("random-oversub", cwd=bare,
                              script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertFalse(any(l.startswith("{") for l in lines))
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
