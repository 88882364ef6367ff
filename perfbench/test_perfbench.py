#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout. They build the harness like run.py does,
then show that the oracles fire: a corrupted serve response and an altered
simulation tally each make the command fail, while clean runs pass. They
also pin the metric catalogue to BENCHMARK.json and check that the
simulation fingerprint of a traced run (1 and 2 threads) equals the timed
run's.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def bench(*args):
    """Run the command; return (exit code, record line, result object)."""
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True,
                          cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2]) if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, record, result


def workload(name, seed=7, trace=0, inject=None):
    args = ["--workload", name, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
    if inject:
        args += ["--inject", inject]
    return bench(*args)


class Catalogue(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        code, _, listed = bench("--list-metrics")
        self.assertEqual(code, 0)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(listed["end_to_end"], spec["end_to_end"])
        self.assertEqual(listed["per_layer"], spec["per_layer"])
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, ["sim_fast", "sim_general", "serve_cold"])


class Oracles(unittest.TestCase):
    def assert_clean(self, code, result, spec_key):
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [m["name"] for m in json.load(f)[spec_key]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))

    def assert_caught(self, code, result):
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_clean_serve_cold_passes(self):
        code, _, result = workload("serve_cold")
        self.assert_clean(code, result, "end_to_end")

    def test_corrupted_response_fails_serve_cold(self):
        self.assert_caught(*workload("serve_cold", inject="response")[::2])

    def test_corrupted_response_fails_serve_hot(self):
        self.assert_caught(*workload("serve_hot", inject="response")[::2])

    def test_corrupted_response_fails_traced_run(self):
        self.assert_caught(
            *workload("serve_hot", trace=1, inject="response")[::2])

    def test_altered_tally_fails_timed_run(self):
        self.assert_caught(*workload("sim_fast", inject="tally")[::2])

    def test_altered_tally_fails_traced_run(self):
        code, record, result = workload("sim_general", trace=1,
                                        inject="tally")
        self.assert_caught(code, result)
        self.assertTrue(any("fingerprint" in f for f in record["failures"]))

    def test_traced_fingerprint_equals_timed(self):
        code, timed, result = workload("sim_general", seed=11)
        self.assert_clean(code, result, "end_to_end")
        code, traced, result = workload("sim_general", seed=11, trace=1)
        self.assert_clean(code, result, "per_layer")
        self.assertEqual(timed["notes"]["sim.fingerprint"],
                         traced["notes"]["sim.fingerprint"])
        self.assertEqual(float(traced["notes"]["sim.fingerprint"]),
                         result["metrics"]["sim.fingerprint"]["value"])
        self.assertTrue(os.path.isfile(traced["trace_file"]))
        for key in ("nproc", "cpu", "compiler", "build_type", "simd"):
            self.assertIn(key, traced["machine"])

    def test_fails_without_the_program_sources(self):
        # Only BENCHMARK.json and perfbench/: the build must fail, no result.
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, build))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sim_fast",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main(verbosity=2)
