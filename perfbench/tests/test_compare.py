#!/usr/bin/env python3
"""Tests of perfbench/compare.py: refusal on host/build mismatch, bounds,
correctness and failed operations."""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

COMPARE = Path(__file__).resolve().parent.parent / "compare.py"

PROVENANCE = {
    "nproc": 4, "cpu_model": "cpu", "hardware_cores": 4, "omp_max_threads": 4,
    "l1d_bytes": 49152, "l2_bytes": 2097152, "l3_bytes": 110100480,
    "build_type": "Release", "sts_tracing": 1, "sts_faults": 0,
    "sts_checks": 0, "width": 4, "workload": "solve_hot", "trace": False,
}

BENCHMARK = {"end_to_end": [
    {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1},
    {"name": "rate_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]}


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.root = Path(self.dir.name)
        self.bench = self.root / "BENCHMARK.json"
        self.bench.write_text(json.dumps(BENCHMARK))
        self.count = 0

    def tearDown(self):
        self.dir.cleanup()

    def result(self, p50, rate, correct=True, failed=0, **provenance):
        self.count += 1
        path = self.root / f"r{self.count}.json"
        path.write_text(json.dumps({
            "provenance": dict(PROVENANCE, **provenance), "detail": {},
            "correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"p50_us": {"value": p50, "unit": "us"},
                        "rate_per_s": {"value": rate, "unit": "1/s"}}}))
        return str(path)

    def run_compare(self, base, new):
        r = subprocess.run([sys.executable, str(COMPARE), "--benchmark",
                            str(self.bench), "--base", *base, "--new", *new],
                           capture_output=True, text=True)
        return r.returncode, r.stdout + r.stderr

    def test_within_bounds_passes(self):
        base = [self.result(100, 50), self.result(102, 51)]
        new = [self.result(105, 48), self.result(107, 47)]
        code, out = self.run_compare(base, new)
        self.assertEqual(code, 0, out)

    def test_regression_beyond_bound_fails(self):
        base = [self.result(100, 50)]
        code, out = self.run_compare(base, [self.result(120, 50)])
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSED", out)
        code, out = self.run_compare(base, [self.result(100, 30)])
        self.assertEqual(code, 1, out)

    def test_incorrect_new_result_fails(self):
        base = [self.result(100, 50), self.result(100, 50)]
        new = [self.result(90, 55), self.result(90, 55, correct=False)]
        code, out = self.run_compare(base, new)
        self.assertEqual(code, 1, out)
        self.assertIn("not correct", out)

    def test_more_failed_operations_than_base_fails(self):
        base = [self.result(100, 50), self.result(100, 50, failed=1)]
        same = [self.result(100, 50, failed=1), self.result(100, 50)]
        self.assertEqual(self.run_compare(base, same)[0], 0)
        more = [self.result(100, 50, failed=1), self.result(100, 50, failed=1)]
        code, out = self.run_compare(base, more)
        self.assertEqual(code, 1, out)
        self.assertIn("failed 2 of 20", out)

    def test_refuses_different_host_width(self):
        base = [self.result(100, 50)]
        new = [self.result(100, 50, nproc=8, width=8, hardware_cores=8)]
        code, out = self.run_compare(base, new)
        self.assertEqual(code, 2, out)
        self.assertIn("nproc", out)

    def test_refuses_different_build_flags(self):
        for key, value in (("sts_tracing", 0), ("sts_faults", 1),
                           ("sts_checks", 1), ("build_type", "Debug")):
            code, out = self.run_compare([self.result(100, 50)],
                                         [self.result(100, 50, **{key: value})])
            self.assertEqual(code, 2, f"{key}: {out}")

    def test_refuses_a_side_that_mixes_hosts(self):
        base = [self.result(100, 50), self.result(100, 50, nproc=2)]
        code, out = self.run_compare(base, [self.result(100, 50)])
        self.assertEqual(code, 2, out)


if __name__ == "__main__":
    unittest.main()
