"""Unit tests for tools/check_search_regression.py (stdlib unittest).

Drives the CLI via subprocess so the exit-code contract (0 pass, 1 regression,
2 usage/malformed input) is what is actually tested.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
SCRIPT = os.path.join(REPO_ROOT, "tools", "check_search_regression.py")


def report(instances):
    return {"bench": "exact_search", "instances": instances}


def instance(name, unseeded, seeded):
    return {"name": name,
            "dfs_expansions_unseeded": unseeded,
            "dfs_expansions_seeded": seeded}


class CheckSearchRegressionTest(unittest.TestCase):
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

    def test_passes_when_counts_stable(self):
        baseline = self.write_json("b.json", report([instance("i10", 100, 50)]))
        current = self.write_json("c.json", report([instance("i10", 101, 50)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("check_search_regression: OK", result.stdout)

    def test_improvement_never_fails(self):
        baseline = self.write_json("b.json", report([instance("i10", 100, 50)]))
        current = self.write_json("c.json", report([instance("i10", 40, 20)]))
        self.assertEqual(self.run_check(baseline, current).returncode, 0)

    def test_fails_on_count_growth_beyond_budget(self):
        baseline = self.write_json("b.json", report([instance("i10", 100, 50)]))
        current = self.write_json("c.json", report([instance("i10", 110, 50)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("REGRESSION", result.stdout)
        self.assertIn("FAIL", result.stderr)

    def test_growth_budget_flag(self):
        baseline = self.write_json("b.json", report([instance("i10", 100, 50)]))
        current = self.write_json("c.json", report([instance("i10", 110, 50)]))
        result = self.run_check(baseline, current, "--max-growth", "0.2")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_fails_on_missing_instance(self):
        baseline = self.write_json("b.json", report(
            [instance("i10", 100, 50), instance("i12", 200, 80)]))
        current = self.write_json("c.json", report([instance("i10", 100, 50)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("MISSING i12", result.stdout)

    def test_malformed_json_exits_two_without_traceback(self):
        baseline = self.write_json("b.json", "{not json")
        current = self.write_json("c.json", report([instance("i10", 1, 1)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 2)
        self.assertIn("not valid JSON", result.stderr)
        self.assertNotIn("Traceback", result.stderr)

    def test_missing_file_exits_two_without_traceback(self):
        current = self.write_json("c.json", report([instance("i10", 1, 1)]))
        result = self.run_check(os.path.join(self.dir, "absent.json"), current)
        self.assertEqual(result.returncode, 2)
        self.assertIn("cannot read", result.stderr)
        self.assertNotIn("Traceback", result.stderr)

    def test_wrong_report_kind_exits_two(self):
        baseline = self.write_json("b.json", {"bench": "micro"})
        current = self.write_json("c.json", report([]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 2)
        self.assertIn("not an exact_search report", result.stderr)

    def test_instance_missing_name_exits_two(self):
        baseline = self.write_json(
            "b.json", {"bench": "exact_search",
                       "instances": [{"dfs_expansions_unseeded": 1,
                                      "dfs_expansions_seeded": 1}]})
        current = self.write_json("c.json", report([instance("i10", 1, 1)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 2)
        self.assertIn("malformed instance record", result.stderr)
        self.assertNotIn("Traceback", result.stderr)

    def test_absent_gated_field_is_skipped_not_fatal(self):
        # Forward compatibility: a report generated by an older bench binary
        # simply lacks a newer gated field — the shared fields still gate.
        old_style = {"bench": "exact_search",
                     "instances": [{"name": "i10",
                                    "dfs_expansions_unseeded": 100}]}
        baseline = self.write_json("b.json", old_style)
        current = self.write_json("c.json", report([instance("i10", 100, 50)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("check_search_regression: OK", result.stdout)

    def test_unknown_extra_fields_are_ignored(self):
        inst = instance("i10", 100, 50)
        inst["some_future_metric"] = "not even a number"
        baseline = self.write_json(
            "b.json", {"bench": "exact_search", "instances": [inst]})
        current = self.write_json("c.json", report([instance("i10", 100, 50)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_present_but_unparsable_field_still_exits_two(self):
        bad = {"name": "i10", "dfs_expansions_unseeded": "garbage",
               "dfs_expansions_seeded": 50}
        baseline = self.write_json(
            "b.json", {"bench": "exact_search", "instances": [bad]})
        current = self.write_json("c.json", report([instance("i10", 1, 1)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 2)
        self.assertIn("malformed instance record", result.stderr)

    def test_timing_and_memo_fields_are_ignored(self):
        # ms and the store_* memo counters are informational: neither a
        # collapse nor a field the baseline lacks may fail the gate.
        baseline = self.write_json("b.json", report([instance("i10", 100, 50)]))
        record = instance("i10", 100, 50)
        record.update({"ms": 9999.0, "store_hits": 0, "store_inserts": 7,
                       "store_evictions": 3})
        current = self.write_json("c.json", report([record]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("check_search_regression: OK", result.stdout)

    def test_removed_speedup_flags_are_rejected(self):
        baseline = self.write_json("b.json", report([instance("i10", 100, 50)]))
        current = self.write_json("c.json", report([instance("i10", 100, 50)]))
        result = self.run_check(baseline, current, "--speedup-slack", "0.1")
        self.assertEqual(result.returncode, 2)

    def test_no_shared_instances_exits_two(self):
        baseline = self.write_json("b.json", report([instance("a", 1, 1)]))
        current = self.write_json("c.json", report([instance("b", 1, 1)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 2)
        self.assertIn("no shared instances", result.stderr)


if __name__ == "__main__":
    unittest.main()
