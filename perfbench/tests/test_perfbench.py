#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-size smoke run of every workload, and
proof that a corrupted forecast, a non-finite RMSE or a packed image that
changed since an earlier run of the same seed fails the run.

    python3 perfbench/tests/test_perfbench.py      # from the repository root

The first test run builds the harness (see perfbench/run.py).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
RUN = os.path.join(PERFBENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace=0, inject=None, cwd=ROOT, script=RUN):
    argv = [sys.executable, script, "--workload", workload, "--seed", "3",
            "--seconds", "2", "--trace", str(trace), "--tiny"]
    if inject:
        argv += ["--inject", inject]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check_result(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = {m["name"]: m["unit"]
                    for m in BENCH["per_layer" if trace else "end_to_end"]}
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result, json.loads(proc.stdout.strip().splitlines()[-2])["context"]

    def test_every_workload_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, context = self.check_result(workload, 0)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in BENCH["end_to_end"]})
                for key in ("seed", "threads", "nproc", "cpu", "isa", "git_sha", "why"):
                    self.assertIn(key, context)

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.check_result(workload, 1)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in BENCH["per_layer"]})


class ChecksFail(unittest.TestCase):
    def assert_fails(self, workload, inject, trace=0):
        proc = run(workload, trace, inject=inject)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertFalse(result["correct"], f"{workload} accepted {inject}")
        return result

    def test_selftest_checks_reject_bad_values(self):
        subprocess.run([sys.executable, RUN, "--workload", "build-paper", "--seed", "1",
                        "--seconds", "1", "--tiny"], cwd=ROOT, check=True,
                       capture_output=True)  # Builds the harness.
        proc = subprocess.run([os.path.join(ROOT, ".bench_build", "acbm_perfbench"),
                               "selftest"], capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout)
        self.assertTrue(result["correct"], result["failures"])

    def test_corrupt_forecast_fails_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.assert_fails(workload, "corrupt-forecast")
                self.assertGreaterEqual(result["failed"], 1)

    def test_nan_rmse_fails_the_build(self):
        # `acbm evaluate` runs in the traced build-paper run.
        result = self.assert_fails("build-paper", "nan-rmse", trace=1)
        self.assertGreaterEqual(result["failed"], 1)

    def test_changed_image_fails_the_build(self):
        self.assertEqual(run("build-paper").returncode, 0)  # Records seed 3's hash.
        hashes = os.path.join(ROOT, ".bench_build", "armm-hashes")
        records = [os.path.join(hashes, name) for name in os.listdir(hashes)
                   if name.startswith("seed3-tiny-")]
        self.assertTrue(records)
        saved = {}
        for record in records:
            with open(record) as f:
                saved[record] = f.read()
            with open(record, "w") as f:
                f.write("0" * 16)
        try:
            self.assert_fails("build-paper", None)
        finally:
            for record, value in saved.items():
                with open(record, "w") as f:
                    f.write(value)


class Stripped(unittest.TestCase):
    def test_fails_without_the_repository(self):
        stripped = os.path.join(ROOT, ".bench_work", "stripped")
        shutil.rmtree(stripped, ignore_errors=True)
        try:
            shutil.copytree(PERFBENCH, os.path.join(stripped, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
            proc = run("build-paper", cwd=stripped,
                       script=os.path.join(stripped, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(stripped, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(stripped))
            except OSError:
                pass


if __name__ == "__main__":
    unittest.main()
