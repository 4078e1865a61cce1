"""Unit tests for tools/check_popsim_regression.py (stdlib unittest).

Drives the CLI via subprocess so the exit-code contract (0 pass, 1 violation
or regression, 2 usage/malformed input) is what is actually tested.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
SCRIPT = os.path.join(REPO_ROOT, "tools", "check_popsim_regression.py")


def report(instances):
    return {"bench": "population_sim", "instances": instances}


def instance(name, digest, cps, seed=0xC11, clients=100000,
             digests=None, cps_cells=None):
    """One instance with a three-cell thread grid sharing digest/cps unless
    per-cell overrides are given."""
    digests = digests or [digest] * 3
    cps_cells = cps_cells or [cps * 0.8, cps, cps * 0.9]
    runs = [{"threads": t, "digest": d, "clients_per_sec": c}
            for t, d, c in zip((1, 2, 8), digests, cps_cells)]
    return {"name": name, "seed": seed, "clients": clients, "runs": runs}


class CheckPopsimRegressionTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = self._tmp.name
        self.addCleanup(self._tmp.cleanup)

    def write_json(self, name, payload):
        path = os.path.join(self.dir, name)
        with open(path, "w") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def run_check(self, baseline, current, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, baseline, current, *extra],
            capture_output=True, text=True)

    def test_passes_when_stable(self):
        baseline = self.write_json("b.json", report([instance("z", "aa", 100)]))
        current = self.write_json("c.json", report([instance("z", "aa", 99)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("check_popsim_regression: OK", result.stdout)

    def test_thread_cell_digest_divergence_fails(self):
        baseline = self.write_json("b.json", report([instance("z", "aa", 100)]))
        current = self.write_json(
            "c.json",
            report([instance("z", "aa", 100, digests=["aa", "aa", "bb"])]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("thread cells disagree", result.stderr)

    def test_digest_drift_against_baseline_fails(self):
        baseline = self.write_json("b.json", report([instance("z", "aa", 100)]))
        current = self.write_json("c.json", report([instance("z", "bb", 100)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("digest drifted", result.stderr)

    def test_throughput_drop_beyond_tolerance_fails(self):
        baseline = self.write_json("b.json", report([instance("z", "aa", 100)]))
        current = self.write_json("c.json", report([instance("z", "aa", 90)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("clients/sec dropped", result.stderr)

    def test_throughput_drop_within_tolerance_passes(self):
        baseline = self.write_json("b.json", report([instance("z", "aa", 100)]))
        current = self.write_json("c.json", report([instance("z", "aa", 96)]))
        self.assertEqual(self.run_check(baseline, current).returncode, 0)

    def test_tolerance_flag_widens_the_budget(self):
        baseline = self.write_json("b.json", report([instance("z", "aa", 100)]))
        current = self.write_json("c.json", report([instance("z", "aa", 80)]))
        self.assertEqual(
            self.run_check(baseline, current, "--tolerance", "0.3").returncode,
            0)

    def test_throughput_improvement_never_fails(self):
        baseline = self.write_json("b.json", report([instance("z", "aa", 100)]))
        current = self.write_json("c.json", report([instance("z", "aa", 500)]))
        self.assertEqual(self.run_check(baseline, current).returncode, 0)

    def test_smoke_clients_override_skips_baseline_comparison(self):
        # A CI smoke run at a smaller client count has no baseline
        # counterpart: determinism is still checked, digests/throughput are
        # not compared against the committed 1M-client cells.
        baseline = self.write_json(
            "b.json", report([instance("z", "aa", 100, clients=1000000)]))
        current = self.write_json(
            "c.json", report([instance("z", "bb", 5, clients=100000)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("no shared instances", result.stderr)

    def test_determinism_checked_even_without_shared_instances(self):
        baseline = self.write_json(
            "b.json", report([instance("z", "aa", 100, clients=1000000)]))
        current = self.write_json(
            "c.json",
            report([instance("z", "aa", 5, clients=100000,
                             digests=["aa", "bb", "aa"])]))
        self.assertEqual(self.run_check(baseline, current).returncode, 1)

    def test_new_instance_in_current_is_ignored(self):
        baseline = self.write_json("b.json", report([instance("z", "aa", 100)]))
        current = self.write_json(
            "c.json",
            report([instance("z", "aa", 100), instance("new", "cc", 7)]))
        self.assertEqual(self.run_check(baseline, current).returncode, 0)

    def test_malformed_json_exits_two(self):
        baseline = self.write_json("b.json", report([instance("z", "aa", 1)]))
        bad = self.write_json("c.json", "{not json")
        self.assertEqual(self.run_check(baseline, bad).returncode, 2)

    def test_wrong_bench_kind_exits_two(self):
        baseline = self.write_json("b.json", report([instance("z", "aa", 1)]))
        other = self.write_json(
            "c.json", {"bench": "exact_search", "instances": []})
        self.assertEqual(self.run_check(baseline, other).returncode, 2)

    def test_missing_file_exits_two(self):
        baseline = self.write_json("b.json", report([instance("z", "aa", 1)]))
        missing = os.path.join(self.dir, "nope.json")
        self.assertEqual(self.run_check(baseline, missing).returncode, 2)

    def test_instance_without_runs_exits_two(self):
        baseline = self.write_json("b.json", report([instance("z", "aa", 1)]))
        broken = self.write_json(
            "c.json",
            report([{"name": "z", "seed": 1, "clients": 10, "runs": []}]))
        self.assertEqual(self.run_check(baseline, broken).returncode, 2)


if __name__ == "__main__":
    unittest.main()
