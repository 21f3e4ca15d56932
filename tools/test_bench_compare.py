#!/usr/bin/env python3
"""Self-test of the bench_compare.py regression gate against the committed
fixture pairs in tools/testdata/bench_compare/ — one per gate verdict:

  fresh_pass                 inside every tolerance            -> exit 0
  fresh_wall_regress         +60% wall on one benchmark        -> exit 1
  fresh_counter_regress      allocs/mutant up, skip_ratio down -> exit 1
  fresh_fingerprint_mismatch different cpu count               -> exit 0 skip
                             (exit 1 under --strict-fingerprint)
  fresh_missing_benchmark    baseline coverage lost            -> exit 1

Registered in ctest (tools_bench_compare_selftest) and run by the CI
bench-gate job, so the gate itself cannot silently rot.
"""

import os
import subprocess
import sys
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
COMPARE = os.path.join(TOOLS_DIR, "bench_compare.py")
FIXTURES = os.path.join(TOOLS_DIR, "testdata", "bench_compare")


def run_compare(fresh, *extra):
    return subprocess.run(
        [sys.executable, COMPARE, os.path.join(FIXTURES, "baseline.json"),
         os.path.join(FIXTURES, fresh), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


class BenchCompareGate(unittest.TestCase):
    def test_pass_within_tolerances(self):
        proc = run_compare("fresh_pass.json")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("No regressions", proc.stdout)

    def test_wall_regression_fails(self):
        proc = run_compare("fresh_wall_regress.json")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("REGRESSIONS", proc.stdout)
        self.assertIn("real_time_ns", proc.stdout)
        # Only the mutation-heavy shape regressed; the incremental one is
        # inside tolerance and must not be flagged.
        self.assertNotIn("BM_CampaignIncremental/1/real_time` / `real_time",
                         proc.stdout)

    def test_wall_tolerance_is_configurable(self):
        proc = run_compare("fresh_wall_regress.json", "--wall-tolerance", "2.0")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_counter_regressions_hard_fail(self):
        proc = run_compare("fresh_counter_regress.json")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("allocs/mutant", proc.stdout)
        self.assertIn("skip_ratio", proc.stdout)
        # Counter regressions are hard failures: no wall tolerance excuses
        # them.
        proc = run_compare("fresh_counter_regress.json",
                           "--wall-tolerance", "10.0")
        self.assertEqual(proc.returncode, 1, proc.stdout)

    def test_fingerprint_mismatch_skips(self):
        proc = run_compare("fresh_fingerprint_mismatch.json")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("SKIP", proc.stdout)
        self.assertIn("num_cpus", proc.stdout)

    def test_fingerprint_mismatch_fails_when_strict(self):
        proc = run_compare("fresh_fingerprint_mismatch.json",
                           "--strict-fingerprint")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("SKIP", proc.stdout)

    def test_missing_baseline_benchmark_fails(self):
        proc = run_compare("fresh_missing_benchmark.json")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("coverage loss", proc.stdout)


if __name__ == "__main__":
    unittest.main()
