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
    return {"bench": "parallel_search", "instances": instances}


def instance(name, unseeded, seeded, runs=None):
    record = {"name": name,
              "dfs_expansions_unseeded": unseeded,
              "dfs_expansions_seeded": seeded}
    if runs is not None:
        record["runs"] = runs
    return record


def run_cell(threads, speedup):
    return {"threads": threads, "speedup_vs_1": speedup}


def scaling_report(speedup_at_8, host=8):
    return {"bench": "parallel_search",
            "host_hardware_concurrency": host,
            "instances": [instance("i16", 100, 50,
                                   runs=[run_cell(1, 1.0),
                                         run_cell(8, speedup_at_8)])]}


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
        self.assertIn("not a parallel_search report", result.stderr)

    def test_instance_missing_name_exits_two(self):
        baseline = self.write_json(
            "b.json", {"bench": "parallel_search",
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
        old_style = {"bench": "parallel_search",
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
            "b.json", {"bench": "parallel_search", "instances": [inst]})
        current = self.write_json("c.json", report([instance("i10", 100, 50)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_present_but_unparsable_field_still_exits_two(self):
        bad = {"name": "i10", "dfs_expansions_unseeded": "garbage",
               "dfs_expansions_seeded": 50}
        baseline = self.write_json(
            "b.json", {"bench": "parallel_search", "instances": [bad]})
        current = self.write_json("c.json", report([instance("i10", 1, 1)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 2)
        self.assertIn("malformed instance record", result.stderr)

    # ------------------------------------------------------------------
    # speedup_vs_1 scaling gate (--speedup-slack / --require-speedup).
    # ------------------------------------------------------------------

    def test_speedup_within_slack_passes(self):
        baseline = self.write_json("b.json", scaling_report(5.0))
        current = self.write_json("c.json", scaling_report(4.6))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("check_search_regression: OK", result.stdout)

    def test_speedup_drop_beyond_slack_fails(self):
        baseline = self.write_json("b.json", scaling_report(5.0))
        current = self.write_json("c.json", scaling_report(3.0))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("speedup@8", result.stderr)
        self.assertIn("REGRESSION", result.stdout)

    def test_speedup_slack_flag_widens_the_floor(self):
        baseline = self.write_json("b.json", scaling_report(5.0))
        current = self.write_json("c.json", scaling_report(3.0))
        result = self.run_check(baseline, current, "--speedup-slack", "0.5")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_speedup_improvement_never_fails(self):
        baseline = self.write_json("b.json", scaling_report(2.0))
        current = self.write_json("c.json", scaling_report(7.9))
        self.assertEqual(self.run_check(baseline, current).returncode, 0)

    def test_speedup_cells_skipped_on_small_host(self):
        # A 1-core container cannot exhibit 8-thread scaling; the collapsed
        # speedup is scheduling noise, not a regression.
        baseline = self.write_json("b.json", scaling_report(5.0, host=8))
        current = self.write_json("c.json", scaling_report(0.2, host=1))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("SKIP", result.stdout)

    def test_malformed_scaling_record_exits_two(self):
        bad = scaling_report(4.0)
        del bad["instances"][0]["runs"][1]["speedup_vs_1"]
        baseline = self.write_json("b.json", scaling_report(4.0))
        current = self.write_json("c.json", bad)
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 2)
        self.assertIn("malformed scaling record", result.stderr)
        self.assertNotIn("Traceback", result.stderr)

    def test_unparsable_speedup_exits_two(self):
        bad = scaling_report(4.0)
        bad["instances"][0]["runs"][1]["speedup_vs_1"] = "fast"
        baseline = self.write_json("b.json", bad)
        current = self.write_json("c.json", scaling_report(4.0))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 2)
        self.assertIn("malformed scaling record", result.stderr)

    def test_sequential_baseline_fields_are_ignored(self):
        # seq_ms and speedup_vs_seq are informational timings: neither a
        # collapse nor a field the baseline lacks may fail the gate.
        baseline = self.write_json("b.json", scaling_report(5.0))
        current_payload = scaling_report(5.0)
        record = current_payload["instances"][0]
        record["seq_ms"] = 0.25
        record["runs"][0]["speedup_vs_seq"] = 0.01
        record["runs"][1]["speedup_vs_seq"] = 0.02
        current = self.write_json("c.json", current_payload)
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("check_search_regression: OK", result.stdout)
        self.assertNotIn("speedup_vs_seq", result.stdout + result.stderr)

    def test_runs_absent_is_forward_compatible(self):
        # Counts-only reports (older bench binaries) still pass the gate.
        baseline = self.write_json("b.json", report([instance("i10", 100, 50)]))
        current = self.write_json("c.json", scaling_report(0.5))
        # No shared instance names -> counts gate exits 2; use same name.
        baseline = self.write_json("b.json", report([instance("i16", 100, 50)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_require_speedup_passes_when_met(self):
        baseline = self.write_json("b.json", scaling_report(4.5))
        current = self.write_json("c.json", scaling_report(4.5))
        result = self.run_check(baseline, current, "--require-speedup", "8:4.0")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("required speedup  : OK", result.stdout)

    def test_require_speedup_fails_when_unmet(self):
        baseline = self.write_json("b.json", scaling_report(3.0))
        current = self.write_json("c.json", scaling_report(3.0))
        result = self.run_check(baseline, current, "--require-speedup", "8:4.0")
        self.assertEqual(result.returncode, 1)
        self.assertIn("gate requires 4.00x", result.stderr)

    def test_require_speedup_skipped_on_small_host(self):
        baseline = self.write_json("b.json", scaling_report(0.2, host=1))
        current = self.write_json("c.json", scaling_report(0.2, host=1))
        result = self.run_check(baseline, current, "--require-speedup", "8:4.0")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("required speedup  : SKIP", result.stdout)

    def test_require_speedup_needs_host_concurrency_field(self):
        legacy = scaling_report(5.0)
        del legacy["host_hardware_concurrency"]
        baseline = self.write_json("b.json", scaling_report(5.0))
        current = self.write_json("c.json", legacy)
        result = self.run_check(baseline, current, "--require-speedup", "8:4.0")
        self.assertEqual(result.returncode, 2)
        self.assertIn("host_hardware_concurrency", result.stderr)

    def test_require_speedup_malformed_spec_exits_two(self):
        baseline = self.write_json("b.json", scaling_report(5.0))
        current = self.write_json("c.json", scaling_report(5.0))
        result = self.run_check(baseline, current, "--require-speedup", "8x4")
        self.assertEqual(result.returncode, 2)
        self.assertIn("THREADS:SPEEDUP", result.stderr)

    def test_no_shared_instances_exits_two(self):
        baseline = self.write_json("b.json", report([instance("a", 1, 1)]))
        current = self.write_json("c.json", report([instance("b", 1, 1)]))
        result = self.run_check(baseline, current)
        self.assertEqual(result.returncode, 2)
        self.assertIn("no shared instances", result.stderr)


if __name__ == "__main__":
    unittest.main()
