#!/usr/bin/env python3
"""The gate for bench reports, in two modes.

  bench_gate.py regression BASELINE CURRENT
      Gates a fresh bench_exact_search or bench_population_sim --json report
      against the committed baseline by the rules in RULES.
  bench_gate.py overhead PLAIN INSTRUMENTED
      Compares two reports of one binary, without and with instrumentation
      (bench_micro --obs, bench_population_sim --telemetry). The geometric
      mean of the run times may rise by at most MAX_OVERHEAD. Per-run jitter
      on a shared runner is symmetric and cancels in the geomean; a
      systematic instrumentation cost does not.

A bench report is {"bench": NAME, "instances": [{"name": ..., "runs":
[{...}, ...]}, ...]}: an instance's parameters sit on the instance, and each
measured run is one record of runs[]. bench_micro writes Google Benchmark
JSON ({"benchmarks": [...]}) instead; each of its non-aggregate rows is read
as an instance with one run, timed by real_time.

Exit codes: 0 pass, 1 a gate failed, 2 unusable input (an unreadable or
malformed report, or two reports with nothing in common).
"""

import json
import math
import sys

# Regression rules by (bench, field). A rule reads the field from every run
# of an instance that carries it:
#   ("same", None)  a deterministic value: every run of a current instance
#                   carries the same one, and it equals the baseline's;
#   ("growth", f)   the largest run value (the worst count) may exceed the
#                   baseline's by at most the fraction f;
#   ("drop", f)     the largest run value (the best rate) may fall short of
#                   the baseline's by at most the fraction f.
# Expansion counts are exact (fixed seeds, one sequential search), so a 2%
# budget is meaningful on a noisy runner; clients/s gets 5% of headroom.
RULES = {
    ("exact_search", "dfs_expansions_unseeded"): ("growth", 0.02),
    ("exact_search", "dfs_expansions_seeded"): ("growth", 0.02),
    ("population_sim", "digest"): ("same", None),
    ("population_sim", "clients_per_sec"): ("drop", 0.05),
}
MAX_OVERHEAD = 0.05

# Instance fields that set the scale of its runs. A current instance is
# compared with the baseline instance of the same name only when these agree:
# a 100k-client smoke run of a committed 1M-client instance checks the
# agreement of its own runs and nothing else.
SCALE_FIELDS = ("seed", "clients")

# How a run field is read. A field that is absent is skipped by every rule;
# one that is present but unreadable makes the report unusable.
KIND_TYPES = {"same": str, "growth": int, "drop": float}
FIELD_TYPES = {"seconds": float, "real_time": float}
FIELD_TYPES.update({field: KIND_TYPES[kind]
                    for (_, field), (kind, _) in RULES.items()})


def unusable(message):
    print(f"bench_gate: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    """Returns (bench, {name: instance}) for a report; bench is None for
    Google Benchmark JSON. Every instance has a nonempty list of runs whose
    known fields are parsed."""
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as error:
        unusable(f"cannot read {path}: {error}")
    except json.JSONDecodeError as error:
        unusable(f"{path} is not valid JSON: {error}")
    if not isinstance(report, dict):
        unusable(f"{path} is not a bench report")
    try:
        if "benchmarks" in report:
            bench = None
            records = [{"name": row["name"], "runs": [row]}
                       for row in report["benchmarks"]
                       if row.get("run_type") != "aggregate"]
        else:
            bench = report["bench"]
            records = report["instances"]
        instances = {}
        for record in records:
            name = str(record["name"])
            runs = record["runs"]
            if not isinstance(runs, list) or not runs:
                raise ValueError(f"instance {name!r} has no runs")
            for run in runs:
                if not isinstance(run, dict):
                    raise ValueError(f"instance {name!r} has a run {run!r}")
                for field, kind in FIELD_TYPES.items():
                    if field in run:
                        run[field] = kind(run[field])
            scale = tuple(int(record[field]) if field in record else None
                          for field in SCALE_FIELDS)
            instances[name] = {"scale": scale, "runs": runs}
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        unusable(f"malformed record in {path}: {error!r}")
    if not instances:
        unusable(f"{path} contains no instances")
    return bench, instances


def values(instance, field):
    return [run[field] for run in instance["runs"] if field in run]


def regression(baseline_path, current_path):
    bench, baseline = load(baseline_path)
    current_bench, current = load(current_path)
    rules = {field: rule for (name, field), rule in RULES.items()
             if name == bench}
    if not rules or current_bench != bench:
        unusable(f"{baseline_path} and {current_path} are not reports of "
                 f"one gated bench ({sorted({b for b, _ in RULES})})")
    if not set(baseline) & set(current):
        unusable("no shared instances between the reports")

    failures = []
    for name, instance in sorted(current.items()):
        for field, (kind, _) in rules.items():
            seen = values(instance, field)
            if kind == "same" and len(set(seen)) > 1:
                failures.append(f"{name}: runs disagree on {field} "
                                f"({', '.join(seen)})")

    compared = 0
    for name, before_instance in sorted(baseline.items()):
        after_instance = current.get(name)
        if after_instance is None:
            failures.append(f"{name}: in the baseline, missing from the "
                            "current report")
            continue
        if after_instance["scale"] != before_instance["scale"]:
            print(f"  {name:22s} scale {before_instance['scale']} -> "
                  f"{after_instance['scale']}, not compared")
            continue
        compared += 1
        for field, (kind, budget) in rules.items():
            before = values(before_instance, field)
            after = values(after_instance, field)
            if not before:
                continue
            if not after:
                failures.append(f"{name}.{field}: in the baseline, missing "
                                "from the current report")
                continue
            if kind == "same":
                marker = "" if after[0] == before[0] else "  <-- DRIFT"
                print(f"  {name:22s} {field:24s} {before[0]} -> {after[0]}"
                      f"{marker}")
                if marker:
                    failures.append(f"{name}: {field} drifted {before[0]} -> "
                                    f"{after[0]}")
                continue
            before, after = max(before), max(after)
            change = (after - before) / before if before > 0 else 0.0
            worse = change if kind == "growth" else -change
            marker = "  <-- REGRESSION" if worse > budget else ""
            print(f"  {name:22s} {field:24s} {before:12.6g} -> {after:12.6g}"
                  f"  ({100.0 * change:+6.2f}%){marker}")
            if marker:
                failures.append(f"{name}: {field} {before:.6g} -> "
                                f"{after:.6g} ({100.0 * change:+.2f}%, "
                                f"budget {kind} {100.0 * budget:.0f}%)")

    print(f"instances compared : {compared} of {len(baseline)} in the "
          f"baseline, {len(current)} in the current report")
    if compared == 0:
        print("bench_gate: no instance shares its scale with the baseline; "
              "only run agreement was checked", file=sys.stderr)
    return failures


def run_times(instances):
    """The time of each run, by instance name and, for the runs of a thread
    grid, thread count."""
    times = {}
    for name, instance in instances.items():
        for run in instance["runs"]:
            label = name
            if "threads" in run:
                label += f"/threads={run['threads']}"
            times[label] = run.get("seconds", run.get("real_time"))
            if times[label] is None:
                unusable(f"run {label} carries no seconds or real_time")
    return times


def overhead(plain_path, instrumented_path):
    plain = run_times(load(plain_path)[1])
    instrumented = run_times(load(instrumented_path)[1])
    shared = sorted(set(plain) & set(instrumented))
    if not shared:
        unusable("no shared benchmarks between the reports")
    log_sum = 0.0
    worst = (None, 0.0)
    for name in shared:
        if plain[name] <= 0.0:
            continue
        ratio = instrumented[name] / plain[name]
        log_sum += math.log(ratio)
        worst = max(worst, (name, ratio), key=lambda pair: pair[1])
        print(f"  {name:45s} {plain[name]:12.6g} -> {instrumented[name]:12.6g}"
              f"  ({100.0 * (ratio - 1.0):+6.2f}%)")
    geomean = math.exp(log_sum / len(shared))
    print(f"benchmarks compared : {len(shared)}")
    print(f"geomean overhead    : {100.0 * (geomean - 1.0):+.2f}% "
          f"(budget {100.0 * MAX_OVERHEAD:.0f}%)")
    print(f"worst case          : {worst[0]} {100.0 * (worst[1] - 1.0):+.2f}%")
    if geomean - 1.0 > MAX_OVERHEAD:
        return ["instrumentation overhead exceeds the budget"]
    return []


def main(argv):
    modes = {"regression": regression, "overhead": overhead}
    if len(argv) != 3 or argv[0] not in modes:
        print(__doc__, file=sys.stderr)
        return 2
    failures = modes[argv[0]](argv[1], argv[2])
    for failure in failures:
        print(f"bench_gate: FAIL — {failure}", file=sys.stderr)
    if failures:
        return 1
    print("bench_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
