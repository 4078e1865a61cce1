"""Unit tests for tools/bench_gate.py (stdlib unittest).

Drives the CLI via subprocess so the exit-code contract (0 pass, 1 a gate
failed, 2 unusable input) is what is actually tested.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
SCRIPT = os.path.join(REPO_ROOT, "tools", "bench_gate.py")


def search_report(instances):
    return {"bench": "exact_search", "instances": instances}


def search_instance(name, unseeded, seeded, repeats=3):
    """An exact_search instance whose runs all carry the same counts."""
    return {"name": name, "channels": 2,
            "runs": [{"seconds": 0.001,
                      "dfs_expansions_unseeded": unseeded,
                      "dfs_expansions_seeded": seeded}] * repeats}


def popsim_report(instances):
    return {"bench": "population_sim", "instances": instances}


def popsim_instance(name, digest, cps, seed=0xC11, clients=100000,
                    digests=None, cps_runs=None):
    """One instance with a three-run thread grid sharing digest/cps unless
    per-run overrides are given."""
    digests = digests or [digest] * 3
    cps_runs = cps_runs or [cps * 0.8, cps, cps * 0.9]
    runs = [{"threads": t, "seconds": 1.0, "digest": d, "clients_per_sec": c}
            for t, d, c in zip((1, 2, 8), digests, cps_runs)]
    return {"name": name, "seed": seed, "clients": clients, "runs": runs}


def timed_popsim_report(cells):
    """cells: {instance_name: {threads: seconds}}."""
    return popsim_report([
        {"name": name,
         "runs": [{"threads": threads, "seconds": seconds}
                  for threads, seconds in runs.items()]}
        for name, runs in cells.items()])


def micro_report(times, run_type="iteration"):
    """bench_micro's Google Benchmark JSON."""
    return {"benchmarks": [
        {"name": name, "real_time": t, "run_type": run_type}
        for name, t in times.items()]}


class BenchGateTest(unittest.TestCase):
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

    def gate(self, mode, baseline, current, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, mode,
             self.write_json("b.json", baseline),
             self.write_json("c.json", current), *extra],
            capture_output=True, text=True)

    def assertUnusable(self, result, message):
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn(message, result.stderr)
        self.assertNotIn("Traceback", result.stderr)


class ExactSearchTest(BenchGateTest):
    def regression(self, baseline, current, *extra):
        return self.gate("regression", search_report(baseline),
                         search_report(current), *extra)

    def test_passes_when_counts_stable(self):
        result = self.regression([search_instance("i10", 100, 50)],
                                 [search_instance("i10", 101, 50)])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("bench_gate: OK", result.stdout)

    def test_improvement_never_fails(self):
        result = self.regression([search_instance("i10", 100, 50)],
                                 [search_instance("i10", 40, 20)])
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_fails_on_count_growth_beyond_budget(self):
        result = self.regression([search_instance("i10", 100, 50)],
                                 [search_instance("i10", 110, 50)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("REGRESSION", result.stdout)
        self.assertIn("FAIL", result.stderr)

    def test_worst_run_is_gated(self):
        current = search_instance("i10", 100, 50)
        current["runs"] = current["runs"][:2] + [
            {"dfs_expansions_unseeded": 110, "dfs_expansions_seeded": 50}]
        result = self.regression([search_instance("i10", 100, 50)], [current])
        self.assertEqual(result.returncode, 1)

    def test_fails_on_missing_instance(self):
        result = self.regression(
            [search_instance("i10", 100, 50), search_instance("i12", 200, 80)],
            [search_instance("i10", 100, 50)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("i12: in the baseline, missing", result.stderr)

    def test_absent_gated_field_is_skipped_not_fatal(self):
        # A baseline written before a gated field existed lacks it; the
        # fields both reports carry still gate.
        old_style = {"name": "i10",
                     "runs": [{"dfs_expansions_unseeded": 100}]}
        result = self.regression([old_style],
                                 [search_instance("i10", 100, 50)])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("bench_gate: OK", result.stdout)

    def test_unknown_extra_fields_are_ignored(self):
        instance = search_instance("i10", 100, 50)
        instance["some_future_metric"] = "not even a number"
        instance["runs"] = [dict(instance["runs"][0], note="x")]
        result = self.regression([instance], [search_instance("i10", 100, 50)])
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_timing_and_memo_fields_are_ignored(self):
        # seconds and the store_* memo counters are informational: neither a
        # collapse nor a field the baseline lacks may fail the gate.
        current = search_instance("i10", 100, 50)
        current["runs"] = [dict(current["runs"][0], seconds=9999.0,
                                store_hits=0, store_inserts=7,
                                store_evictions=3)]
        result = self.regression([search_instance("i10", 100, 50)], [current])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("bench_gate: OK", result.stdout)

    def test_present_but_unparsable_field_exits_two(self):
        bad = search_instance("i10", "garbage", 50)
        self.assertUnusable(
            self.regression([bad], [search_instance("i10", 1, 1)]),
            "malformed record")

    def test_instance_missing_name_exits_two(self):
        nameless = search_instance("i10", 1, 1)
        del nameless["name"]
        self.assertUnusable(
            self.regression([nameless], [search_instance("i10", 1, 1)]),
            "malformed record")

    def test_wrong_report_kind_exits_two(self):
        result = self.gate("regression", {"bench": "micro"},
                           search_report([search_instance("i10", 1, 1)]))
        self.assertUnusable(result, "malformed record")
        result = self.gate("regression",
                           popsim_report([popsim_instance("i10", "aa", 1)]),
                           search_report([search_instance("i10", 1, 1)]))
        self.assertUnusable(result, "not reports of one gated bench")

    def test_no_shared_instances_exits_two(self):
        result = self.regression([search_instance("a", 1, 1)],
                                 [search_instance("b", 1, 1)])
        self.assertUnusable(result, "no shared instances")

    def test_threshold_flags_are_gone(self):
        # The budgets are constants: the old per-script flags are usage
        # errors, as is any other extra argument.
        for flag in ("--max-growth", "--tolerance", "--max-overhead",
                     "--speedup-slack"):
            result = self.regression([search_instance("i10", 100, 50)],
                                     [search_instance("i10", 110, 50)],
                                     flag, "0.5")
            self.assertEqual(result.returncode, 2, flag)


class PopulationSimTest(BenchGateTest):
    def regression(self, baseline, current):
        return self.gate("regression", popsim_report(baseline),
                         popsim_report(current))

    def test_passes_when_stable(self):
        result = self.regression([popsim_instance("z", "aa", 100)],
                                 [popsim_instance("z", "aa", 99)])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("bench_gate: OK", result.stdout)

    def test_thread_cell_digest_divergence_fails(self):
        result = self.regression(
            [popsim_instance("z", "aa", 100)],
            [popsim_instance("z", "aa", 100, digests=["aa", "aa", "bb"])])
        self.assertEqual(result.returncode, 1)
        self.assertIn("runs disagree on digest", result.stderr)

    def test_digest_drift_against_baseline_fails(self):
        result = self.regression([popsim_instance("z", "aa", 100)],
                                 [popsim_instance("z", "bb", 100)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("digest drifted", result.stderr)

    def test_throughput_drop_beyond_budget_fails(self):
        result = self.regression([popsim_instance("z", "aa", 100)],
                                 [popsim_instance("z", "aa", 90)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("clients_per_sec", result.stderr)

    def test_throughput_drop_within_budget_passes(self):
        result = self.regression([popsim_instance("z", "aa", 100)],
                                 [popsim_instance("z", "aa", 96)])
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_best_run_is_gated(self):
        # Only the best run counts: two slow runs beside one at the
        # baseline's best pass.
        result = self.regression(
            [popsim_instance("z", "aa", 100)],
            [popsim_instance("z", "aa", 100, cps_runs=[50, 100, 60])])
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_throughput_improvement_never_fails(self):
        result = self.regression([popsim_instance("z", "aa", 100)],
                                 [popsim_instance("z", "aa", 500)])
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_smoke_scale_skips_baseline_comparison(self):
        # A CI smoke run at a smaller client count has no baseline of its
        # scale: run agreement is still checked, digests and throughput are
        # not compared against the committed 1M-client runs.
        result = self.regression(
            [popsim_instance("z", "aa", 100, clients=1000000)],
            [popsim_instance("z", "bb", 5, clients=100000)])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("no instance shares its scale", result.stderr)

    def test_determinism_checked_at_smoke_scale(self):
        result = self.regression(
            [popsim_instance("z", "aa", 100, clients=1000000)],
            [popsim_instance("z", "aa", 5, clients=100000,
                             digests=["aa", "bb", "aa"])])
        self.assertEqual(result.returncode, 1)

    def test_new_instance_in_current_is_ignored(self):
        result = self.regression(
            [popsim_instance("z", "aa", 100)],
            [popsim_instance("z", "aa", 100), popsim_instance("new", "cc", 7)])
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_malformed_json_exits_two(self):
        result = self.gate("regression",
                           popsim_report([popsim_instance("z", "aa", 1)]),
                           "{not json")
        self.assertUnusable(result, "not valid JSON")

    def test_empty_report_exits_two(self):
        result = self.gate("regression",
                           popsim_report([popsim_instance("z", "aa", 1)]),
                           {"bench": "exact_search", "instances": []})
        self.assertUnusable(result, "contains no instances")

    def test_missing_file_exits_two(self):
        result = subprocess.run(
            [sys.executable, SCRIPT, "regression",
             self.write_json("b.json",
                             popsim_report([popsim_instance("z", "aa", 1)])),
             os.path.join(self.dir, "nope.json")],
            capture_output=True, text=True)
        self.assertUnusable(result, "cannot read")

    def test_instance_without_runs_exits_two(self):
        result = self.regression(
            [popsim_instance("z", "aa", 1)],
            [{"name": "z", "seed": 1, "clients": 10, "runs": []}])
        self.assertUnusable(result, "has no runs")


class OverheadTest(BenchGateTest):
    def overhead(self, plain, instrumented):
        return self.gate("overhead", plain, instrumented)

    def test_passes_within_budget(self):
        result = self.overhead(micro_report({"BM_a": 100.0, "BM_b": 200.0}),
                               micro_report({"BM_a": 102.0, "BM_b": 204.0}))
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("bench_gate: OK", result.stdout)

    def test_fails_over_budget(self):
        result = self.overhead(micro_report({"BM_a": 100.0, "BM_b": 200.0}),
                               micro_report({"BM_a": 150.0, "BM_b": 300.0}))
        self.assertEqual(result.returncode, 1)
        self.assertIn("exceeds", result.stderr)

    def test_jitter_cancels_in_geomean(self):
        # Symmetric noise: one benchmark 10% slower, one ~10% faster. The
        # geomean stays ~1.0 so the suite passes the 5% budget.
        result = self.overhead(
            micro_report({"BM_a": 100.0, "BM_b": 100.0}),
            micro_report({"BM_a": 110.0, "BM_b": 90.9090909}))
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_aggregates_ignored(self):
        instrumented = micro_report({"BM_a": 101.0})
        instrumented["benchmarks"].extend(
            micro_report({"BM_a_mean": 500.0},
                         run_type="aggregate")["benchmarks"])
        result = self.overhead(micro_report({"BM_a": 100.0}), instrumented)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_malformed_json_exits_two(self):
        result = self.overhead("not json at all",
                               micro_report({"BM_a": 1.0}))
        self.assertUnusable(result, "not valid JSON")

    def test_missing_file_exits_two(self):
        result = subprocess.run(
            [sys.executable, SCRIPT, "overhead",
             os.path.join(self.dir, "absent.json"),
             self.write_json("o.json", micro_report({"BM_a": 1.0}))],
            capture_output=True, text=True)
        self.assertUnusable(result, "cannot read")

    def test_benchmark_missing_time_exits_two(self):
        result = self.overhead({"benchmarks": [{"name": "BM_a"}]},
                               micro_report({"BM_a": 1.0}))
        self.assertUnusable(result, "carries no seconds or real_time")

    def test_popsim_runs_within_budget(self):
        result = self.overhead(
            timed_popsim_report({"zipf_bernoulli_1m": {1: 10.0, 8: 2.0},
                                 "doze_uniform_100k": {1: 1.0}}),
            timed_popsim_report({"zipf_bernoulli_1m": {1: 10.2, 8: 2.04},
                                 "doze_uniform_100k": {1: 1.01}}))
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("zipf_bernoulli_1m/threads=8", result.stdout)

    def test_popsim_runs_over_budget(self):
        result = self.overhead(
            timed_popsim_report({"zipf_bernoulli_1m": {1: 10.0}}),
            timed_popsim_report({"zipf_bernoulli_1m": {1: 12.0}}))
        self.assertEqual(result.returncode, 1)

    def test_popsim_malformed_run_exits_two(self):
        result = self.overhead(
            popsim_report([{"name": "x", "runs": [{"threads": 1}]}]),
            timed_popsim_report({"x": {1: 1.0}}))
        self.assertUnusable(result, "carries no seconds or real_time")
        result = self.overhead(
            popsim_report([{"name": "x",
                            "runs": [{"threads": 1, "seconds": "slow"}]}]),
            timed_popsim_report({"x": {1: 1.0}}))
        self.assertUnusable(result, "malformed record")

    def test_no_shared_benchmarks_exits_two(self):
        result = self.overhead(micro_report({"BM_a": 1.0}),
                               micro_report({"BM_b": 1.0}))
        self.assertUnusable(result, "no shared benchmarks")


if __name__ == "__main__":
    unittest.main()
