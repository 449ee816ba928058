#!/usr/bin/env python3
"""Bench regression gate.

Compares a machine-readable report against a checked-in baseline, metric
by metric, with a relative tolerance. Two report kinds are gated:

  # the sweep gate: a tools/scenario_run report (aequus-scenario-report-v1)
  scenario_run fig10_baseline fig13_bursty backend_faceoff --max-jobs 800 \
      --reps 2 --threads 2 --no-determinism --json scenario-gate.json
  bench_gate.py --compare scenario-gate.json \
      --baseline tools/bench_baselines/SCENARIO_gate.json

  # the wall-ratio gates: run a bench, then compare its BENCH_<name>.json
  bench_gate.py --bench ./build/bench/bench_incremental \
      --bench-args "240 --reps 5" --out-dir ./build/bench-gate \
      --baseline tools/bench_baselines/BENCH_incremental.json

A scenario report must carry the same scenarios as its baseline, each
with the same job count, task count and variant set, and the same
per-task fingerprints. A BENCH report must match its baseline's run
configuration (bench, jobs, replications, root seed) and variant names.
Comparing different configurations is refused, not fudged.

A third mode schema-checks scenario reports without gating any values:

  bench_gate.py --validate-scenario-report ./build/scenario-report.json

A fourth mode schema-checks the metrics dumps scenario_run emits via
--metrics FILE (aequus-metrics-dump-v1):

  bench_gate.py --validate-metrics-dump ./build/metrics.json

The gated quantity is each variant's aggregate *mean* per metric; the
sweep's metrics are deterministic for a fixed (jobs, replications, seed)
triple and independent of the thread count, so the tolerance (default
15 %) only needs to absorb cross-platform floating-point drift.
Histogram bucket layouts (the "obs" block of each variant) must be
identical. Wall-clock fields are reported but never gated: they depend
on the machine, not the code's correctness.

A baseline metric entry may carry "floor" and/or "ceiling" instead of a
mean, turning the gate one-sided: the emitted mean must stay >= floor
and <= ceiling, with no relative band. This is how performance *ratios*
(the incremental engine's speedup, the batch-wrapper overhead) are
gated — only one direction is a regression, and the absolute
microseconds they are derived from are machine-specific.

Exit codes: 0 pass, 1 regression or mismatch, 77 skipped (missing
baseline/report — wired to ctest's SKIP_RETURN_CODE), 2 usage error.

Refresh a baseline intentionally by rerunning its command with the
output aimed at tools/bench_baselines/ (for the sweep gate:
--json tools/bench_baselines/SCENARIO_gate.json).
"""

import argparse
import json
import shlex
import subprocess
import sys
from pathlib import Path

SKIP = 77

# Fields compared exactly (run configuration, not measurements).
CONFIG_KEYS = ("bench", "jobs", "replications", "root_seed")


def load(path: Path, role: str):
    if not path.is_file():
        print(f"SKIP: {role} {path} not found")
        sys.exit(SKIP)
    with path.open() as fh:
        return json.load(fh)


def histogram_layouts(variants: dict) -> dict:
    """variant.histogram -> its bucket layout (spec + explicit bounds)."""
    layouts = {}
    for variant, payload in variants.items():
        for key, hist in payload.get("obs", {}).get("histograms", {}).items():
            layouts[f"{variant}.{key}"] = {
                "spec": hist.get("spec"),
                "bounds": hist.get("bounds"),
            }
    return layouts


def compare_variants(base_variants: dict, new_variants: dict, tolerance: float,
                     abs_epsilon: float, prefix: str = "") -> list[str]:
    """Gate one set of per-variant blocks: metric means and histogram layouts."""
    if set(base_variants) != set(new_variants):
        return [
            f"{prefix}variant set changed: {sorted(new_variants)} "
            f"vs baseline {sorted(base_variants)}"
        ]

    failures = []
    for variant, payload in sorted(base_variants.items()):
        for metric, summary in sorted(payload.get("metrics", {}).items()):
            where = f"{prefix}{variant}.{metric}"
            expected = summary.get("mean")
            actual = new_variants[variant].get("metrics", {}).get(metric, {}).get("mean")
            if actual is None:
                failures.append(f"{where}: missing from emitted report")
                continue
            # One-sided contracts: a baseline entry may carry "floor"
            # and/or "ceiling" instead of a mean. These gate performance
            # *ratios* (speedups, overheads) where only one direction is a
            # regression and the machine-to-machine spread makes a
            # two-sided band meaningless.
            floor = summary.get("floor")
            ceiling = summary.get("ceiling")
            if floor is not None or ceiling is not None:
                if floor is not None and actual < floor:
                    failures.append(f"{where}: {actual:.6g} below floor {floor:.6g}")
                if ceiling is not None and actual > ceiling:
                    failures.append(f"{where}: {actual:.6g} above ceiling {ceiling:.6g}")
                continue
            # The allowed band is relative with an absolute floor: a purely
            # relative band collapses for near-zero baselines (a mean of
            # 1e-8 would only admit +-1.5e-9 of float noise), so deviations
            # within abs_epsilon always pass.
            band = max(tolerance * abs(expected), abs_epsilon)
            if abs(actual - expected) > band:
                failures.append(
                    f"{where}: {actual:.6g} deviates from baseline "
                    f"{expected:.6g} by more than {tolerance:.0%} (band {band:.6g})"
                )

    # Histogram bucket layouts are configuration, not measurements: the
    # bounds come from the HistogramSpec exported in each variant's "obs"
    # snapshot, and a silent layout change would make historical bucket
    # counts incomparable. Exact equality, no tolerance. Baselines that
    # predate the obs section simply contribute no layouts here.
    base_layouts = histogram_layouts(base_variants)
    new_layouts = histogram_layouts(new_variants)
    for key in sorted(base_layouts):
        if key not in new_layouts:
            failures.append(f"{prefix}{key}: histogram missing from emitted report")
            continue
        if base_layouts[key]["spec"] != new_layouts[key]["spec"]:
            failures.append(
                f"{prefix}{key}: histogram spec changed: {new_layouts[key]['spec']} "
                f"vs baseline {base_layouts[key]['spec']}"
            )
        elif base_layouts[key]["bounds"] != new_layouts[key]["bounds"]:
            failures.append(f"{prefix}{key}: histogram bucket bounds changed")
    return failures


def compare_scenarios(emitted: dict, baseline: dict, tolerance: float,
                      abs_epsilon: float) -> list[str]:
    """Gate a scenario report against a scenario-report baseline.

    Per scenario (matched by name): the job and task counts must match
    exactly, the variant blocks go through compare_variants, and the
    per-task fingerprints must be identical. A fingerprint hashes every
    sample of every series, so equal fingerprints mean the runs did not
    move.
    """
    if emitted.get("schema") != SCENARIO_SCHEMA:
        return [f"report schema {emitted.get('schema')!r} does not match the "
                f"baseline's {SCENARIO_SCHEMA!r}"]
    base = {entry.get("name"): entry for entry in baseline.get("scenarios", [])}
    new = {entry.get("name"): entry for entry in emitted.get("scenarios", [])}
    if set(base) != set(new):
        return [f"scenario set changed: {sorted(map(str, new))} "
                f"vs baseline {sorted(map(str, base))}"]

    failures = []
    for name, expected in sorted(base.items()):
        actual = new[name]
        shape = [f"{name}: {key} = {actual.get(key)!r}, baseline has {expected.get(key)!r}"
                 for key in ("jobs", "tasks") if actual.get(key) != expected.get(key)]
        if shape:
            failures += shape  # a different run shape; metric diffs would be noise
            continue
        failures += compare_variants(expected.get("variants", {}), actual.get("variants", {}),
                                     tolerance, abs_epsilon, prefix=f"{name}: ")
        if actual.get("fingerprints") != expected.get("fingerprints"):
            failures.append(f"{name}: fingerprints {actual.get('fingerprints')} differ from "
                            f"baseline {expected.get('fingerprints')}")
    return failures


def compare(emitted: dict, baseline: dict, tolerance: float,
            abs_epsilon: float = 1e-6) -> list[str]:
    """Returns a list of human-readable failures (empty = gate passes)."""
    if baseline.get("schema") == SCENARIO_SCHEMA:
        return compare_scenarios(emitted, baseline, tolerance, abs_epsilon)
    failures = []
    for key in CONFIG_KEYS:
        if emitted.get(key) != baseline.get(key):
            failures.append(
                f"config mismatch: {key} = {emitted.get(key)!r}, "
                f"baseline has {baseline.get(key)!r}"
            )
    if failures:
        return failures  # different run shape; metric diffs would be noise
    return compare_variants(baseline.get("variants", {}), emitted.get("variants", {}),
                            tolerance, abs_epsilon)


SCENARIO_SCHEMA = "aequus-scenario-report-v1"
FINGERPRINT_HEX = set("0123456789abcdef")

# Per-metric summary fields tools/scenario_run emits for every variant.
SUMMARY_FIELDS = ("count", "mean", "stddev", "ci95_half", "min", "max")

# Numeric columns of a backend-comparison row (the head-to-head table
# scenarios with a variants list emit; see scenarios/backend_faceoff.json).
COMPARISON_COLUMNS = ("fairness_distance", "starved_jobs", "throughput_jobs_per_h",
                      "max_share_error", "delta_latency_ms")


def _validate_comparison(where: str, entry: dict, errors: list[str]) -> None:
    """Check an optional per-scenario 'comparison' array (backend face-off).

    Each row names a variant (which must exist in the scenario's variants
    object) and its resolved fairness backend, and carries one number per
    face-off column. Scenarios without the key validate unchanged.
    """
    comparison = entry.get("comparison")
    if comparison is None:
        return
    if not isinstance(comparison, list) or not comparison:
        errors.append(f"{where}: 'comparison' must be a non-empty array")
        return
    variants = entry.get("variants")
    known_variants = set(variants) if isinstance(variants, dict) else None
    for j, row in enumerate(comparison):
        if not isinstance(row, dict):
            errors.append(f"{where}: comparison[{j}] must be an object")
            continue
        for field in ("variant", "backend"):
            if not isinstance(row.get(field), str) or not row[field]:
                errors.append(
                    f"{where}: comparison[{j}] needs a non-empty string {field!r}")
        bad = [c for c in COMPARISON_COLUMNS
               if not isinstance(row.get(c), (int, float)) or isinstance(row.get(c), bool)]
        if bad:
            errors.append(
                f"{where}: comparison[{j}] missing numeric {'/'.join(bad)}")
        if (known_variants is not None and isinstance(row.get("variant"), str)
                and row["variant"] not in known_variants):
            errors.append(
                f"{where}: comparison[{j}] names unknown variant {row['variant']!r}")


def validate_scenario_report(document) -> list[str]:
    """Schema check for the reports tools/scenario_run emits.

    Purely structural: gate *outcomes* are the scenario runner's job (and
    its exit code); this guards the report contract downstream tooling
    parses — schema tag, per-scenario gate entries, fingerprint shape,
    metric summaries, and each variant's merged "obs" snapshot.
    """
    errors = []
    if not isinstance(document, dict):
        return ["report root must be an object"]
    if document.get("schema") != SCENARIO_SCHEMA:
        errors.append(f"schema must be {SCENARIO_SCHEMA!r}, got {document.get('schema')!r}")
    if not isinstance(document.get("passed"), bool):
        errors.append("top-level 'passed' must be a bool")
    if not isinstance(document.get("wall_seconds"), (int, float)):
        errors.append("top-level 'wall_seconds' must be a number")
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        errors.append("'scenarios' must be a non-empty array")
        return errors

    for i, entry in enumerate(scenarios):
        where = f"scenarios[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: must be an object")
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: 'name' must be a non-empty string")
        else:
            where = f"scenarios[{i}] ({name})"
        for field in ("jobs", "tasks", "threads"):
            value = entry.get(field)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                errors.append(f"{where}: '{field}' must be a positive integer")
        if not isinstance(entry.get("passed"), bool):
            errors.append(f"{where}: 'passed' must be a bool")

        gates = entry.get("gates")
        if not isinstance(gates, list) or not gates:
            errors.append(f"{where}: 'gates' must be a non-empty array")
        else:
            for j, gate in enumerate(gates):
                if (not isinstance(gate, dict)
                        or not isinstance(gate.get("gate"), str)
                        or not isinstance(gate.get("passed"), bool)
                        or not isinstance(gate.get("detail"), str)):
                    errors.append(f"{where}: gates[{j}] needs gate/passed/detail")
            if isinstance(entry.get("passed"), bool):
                all_gates = all(g.get("passed") is True for g in gates if isinstance(g, dict))
                if entry["passed"] != all_gates:
                    errors.append(f"{where}: 'passed' disagrees with its gate results")

        fingerprints = entry.get("fingerprints")
        if not isinstance(fingerprints, list):
            errors.append(f"{where}: 'fingerprints' must be an array")
        else:
            if isinstance(entry.get("tasks"), int) and len(fingerprints) != entry["tasks"]:
                errors.append(
                    f"{where}: {len(fingerprints)} fingerprint(s) for {entry['tasks']} task(s)")
            for fp in fingerprints:
                if (not isinstance(fp, str) or len(fp) != 16
                        or not set(fp) <= FINGERPRINT_HEX):
                    errors.append(f"{where}: fingerprint {fp!r} is not 16 hex chars")
                    break

        variants = entry.get("variants")
        if not isinstance(variants, dict) or not variants:
            errors.append(f"{where}: 'variants' must be a non-empty object")
        else:
            for vname, payload in sorted(variants.items()):
                metrics = payload.get("metrics") if isinstance(payload, dict) else None
                if not isinstance(metrics, dict):
                    errors.append(f"{where}: variants[{vname!r}] needs a 'metrics' object")
                    continue
                for metric, summary in sorted(metrics.items()):
                    missing = [f for f in SUMMARY_FIELDS
                               if not isinstance(summary, dict)
                               or not isinstance(summary.get(f), (int, float))]
                    if missing:
                        errors.append(
                            f"{where}: variants[{vname!r}].metrics[{metric!r}] "
                            f"missing numeric {'/'.join(missing)}")
                        break
                if "obs" in payload:
                    _validate_snapshot(f"{where}: variants[{vname!r}].obs", payload["obs"],
                                       errors)

        _validate_comparison(where, entry, errors)
    return errors


METRICS_SCHEMA = "aequus-metrics-dump-v1"


def _is_count(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and value >= 0 and float(value).is_integer()


def validate_metrics_dump(document) -> list[str]:
    """Schema check for aequus-metrics-dump-v1 documents.

    These are the registry snapshot exports behind tools/scenario_run
    --metrics FILE. Counters must be non-negative integers,
    gauges numeric, and histogram bucket counts must be consistent: one
    overflow bucket beyond the bounds, and the scalar count equal to the
    bucket sum.
    """
    errors = []
    if not isinstance(document, dict):
        return ["dump root must be an object"]
    if document.get("schema") != METRICS_SCHEMA:
        errors.append(f"schema must be {METRICS_SCHEMA!r}, got {document.get('schema')!r}")
    if not isinstance(document.get("source"), str) or not document["source"]:
        errors.append("'source' must be a non-empty string")
    snapshots = document.get("snapshots")
    if not isinstance(snapshots, dict) or not snapshots:
        errors.append("'snapshots' must be a non-empty object")
        return errors

    for name, snapshot in sorted(snapshots.items()):
        _validate_snapshot(f"snapshots[{name!r}]", snapshot, errors)
    return errors


def _validate_snapshot(where: str, snapshot, errors: list[str]) -> None:
    """Check one merged registry snapshot (a metrics-dump entry or a
    report variant's "obs" block): counters are non-negative integers,
    gauges numeric, and each histogram has one overflow bucket beyond its
    bounds and a count equal to its bucket sum."""
    if not isinstance(snapshot, dict):
        errors.append(f"{where}: must be an object")
        return
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(section), dict):
            errors.append(f"{where}: '{section}' must be an object")
    if any(not isinstance(snapshot.get(s), dict)
           for s in ("counters", "gauges", "histograms")):
        return
    for key, value in sorted(snapshot["counters"].items()):
        if not _is_count(value):
            errors.append(f"{where}: counter {key!r} must be a non-negative "
                          f"integer, got {value!r}")
    for key, gauge in sorted(snapshot["gauges"].items()):
        fields = ("last", "sum", "samples", "mean")
        if (not isinstance(gauge, dict)
                or any(not isinstance(gauge.get(f), (int, float))
                       or isinstance(gauge.get(f), bool) for f in fields)):
            errors.append(f"{where}: gauge {key!r} needs numeric "
                          f"{'/'.join(fields)}")
    for key, hist in sorted(snapshot["histograms"].items()):
        if (not isinstance(hist, dict)
                or not isinstance(hist.get("bounds"), list)
                or not isinstance(hist.get("counts"), list)
                or not _is_count(hist.get("count"))):
            errors.append(f"{where}: histogram {key!r} needs bounds/counts arrays "
                          "and an integer count")
            continue
        if len(hist["counts"]) != len(hist["bounds"]) + 1:
            errors.append(
                f"{where}: histogram {key!r} has {len(hist['counts'])} bucket "
                f"count(s) for {len(hist['bounds'])} bound(s) "
                "(expected bounds + overflow)")
        if not all(_is_count(c) for c in hist["counts"]):
            errors.append(f"{where}: histogram {key!r} bucket counts must be "
                          "non-negative integers")
        elif hist["count"] != sum(hist["counts"]):
            errors.append(
                f"{where}: histogram {key!r} count {hist['count']} != bucket "
                f"sum {sum(hist['counts'])}")


def self_test() -> int:
    """Unit cases for compare(), runnable without any bench artifacts."""

    def report(metrics: dict, histograms: dict | None = None, **config):
        # A metric value may be a plain mean, or a dict of summary fields
        # (for baselines carrying one-sided "floor"/"ceiling" contracts).
        base = {"bench": "t", "jobs": 100, "replications": 2, "root_seed": "0x7de"}
        base.update(config)
        base["variants"] = {
            "v": {"metrics": {name: (dict(spec) if isinstance(spec, dict) else {"mean": spec})
                              for name, spec in metrics.items()}}
        }
        if histograms is not None:
            base["variants"]["v"]["obs"] = {"histograms": histograms}
        return base

    hist = {"spec": {"first_bound": 0.1, "growth": 2, "buckets": 4},
            "bounds": [0.1, 0.2, 0.4, 0.8], "counts": [1, 2, 3, 4]}
    rebucketed = dict(hist, spec={"first_bound": 0.5, "growth": 2, "buckets": 4},
                      bounds=[0.5, 1.0, 2.0, 4.0])

    cases = [
        ("zero baseline stays zero",
         report({"drops": 0.0}), report({"drops": 0.0}), 0),
        ("near-zero baseline absorbs float noise via the absolute floor",
         report({"err": 1e-8}), report({"err": 2e-8}), 0),
        ("relative band passes a small drift",
         report({"makespan": 100.0}), report({"makespan": 110.0}), 0),
        ("relative band rejects a real regression",
         report({"makespan": 100.0}), report({"makespan": 130.0}), 1),
        ("absolute floor does not mask a regression on a large metric",
         report({"makespan": 100.0}), report({"makespan": 84.0}), 1),
        ("missing metric is a failure",
         report({"makespan": 100.0, "gone": 1.0}), report({"makespan": 100.0}), 1),
        ("config mismatch is refused before metric diffs",
         report({"makespan": 100.0}), report({"makespan": 100.0}, jobs=200), 1),
        ("identical histogram layouts pass, counts ungated",
         report({}, histograms={"wait_s": hist}),
         report({}, histograms={"wait_s": dict(hist, counts=[9, 9, 9, 9])}), 0),
        ("histogram spec change is a failure",
         report({}, histograms={"wait_s": hist}),
         report({}, histograms={"wait_s": rebucketed}), 1),
        ("histogram missing from the emitted report is a failure",
         report({}, histograms={"wait_s": hist}), report({}), 1),
        ("baseline without an obs section gates nothing",
         report({"makespan": 100.0}),
         report({"makespan": 100.0}, histograms={"wait_s": hist}), 0),
        ("speedup above its floor passes",
         report({"speedup": {"floor": 5.0}}), report({"speedup": 22.9}), 0),
        ("speedup below its floor is a regression",
         report({"speedup": {"floor": 5.0}}), report({"speedup": 3.1}), 1),
        ("overhead under its ceiling passes",
         report({"overhead": {"ceiling": 1.02}}), report({"overhead": 0.25}), 0),
        ("overhead above its ceiling is a regression",
         report({"overhead": {"ceiling": 1.02}}), report({"overhead": 1.5}), 1),
        ("one-sided metric missing from the emitted report is a failure",
         report({"speedup": {"floor": 5.0}}), report({}), 1),
        ("emitted metrics absent from the baseline are ungated",
         # The ingest-throughput baseline leans on this: it floors the
         # speedup ratios while the emitted absolute completion rates
         # (machine-specific) pass through uncompared.
         report({"speedup": {"floor": 5.0}}),
         report({"speedup": 6.5, "rpc_completions_per_sec": 664654.0}), 0),
        ("floor and ceiling can bracket a ratio together",
         report({"ratio": {"floor": 0.9, "ceiling": 1.1}}), report({"ratio": 2.0}), 1),
    ]

    # Scenario-report baselines (the sweep gate's SCENARIO_gate.json).
    def gate_report(name="s", jobs=800, mean=100.0, variants=("s/a", "s/b"),
                    fingerprints=("0123456789abcdef", "fedcba9876543210"), histograms=None):
        blocks = {v: {"metrics": {"makespan": {"mean": mean}}} for v in variants}
        for block in blocks.values():
            if histograms is not None:
                block["obs"] = {"histograms": histograms}
        return {"schema": SCENARIO_SCHEMA, "scenarios": [
            {"name": name, "jobs": jobs, "tasks": len(fingerprints), "variants": blocks,
             "fingerprints": list(fingerprints)}]}

    cases += [
        ("identical scenario reports pass", gate_report(), gate_report(), 0),
        ("scenario metric drift inside the band passes",
         gate_report(), gate_report(mean=110.0), 0),
        ("scenario metric regression fails once per variant",
         gate_report(), gate_report(mean=130.0), 2),
        ("a moved fingerprint fails",
         gate_report(), gate_report(fingerprints=("0123456789abcdef", "0000000000000000")), 1),
        ("a different job count is refused before metric diffs",
         gate_report(), gate_report(jobs=400, mean=130.0), 1),
        ("a changed variant set fails",
         gate_report(), gate_report(variants=("s/a",)), 1),
        ("a renamed scenario fails",
         gate_report(), gate_report(name="t"), 1),
        ("a scenario histogram layout change fails",
         gate_report(variants=("s/a",), histograms={"wait_s": hist}),
         gate_report(variants=("s/a",), histograms={"wait_s": rebucketed}), 1),
        ("a BENCH report is refused against a scenario baseline",
         gate_report(), report({"makespan": 100.0}), 1),
    ]

    failed = 0
    for name, baseline, emitted, expected_failures in cases:
        failures = compare(emitted, baseline, tolerance=0.15)
        ok = len(failures) == expected_failures
        print(f"  {'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            print(f"       expected {expected_failures} failure(s), got: {failures}")
            failed += 1

    # Scenario-report schema validator cases.
    def scenario_report(**overrides):
        entry = {
            "name": "fig10_baseline", "jobs": 216, "tasks": 4, "threads": 1,
            "wall_seconds": 1.5, "passed": True,
            "gates": [{"gate": "invariants", "passed": True, "detail": "120 checks"}],
            "variants": {"fig10_baseline": {"metrics": {"makespan": {
                "count": 4.0, "mean": 21600.0, "stddev": 0.0,
                "ci95_half": 0.0, "min": 21600.0, "max": 21600.0}}}},
            "fingerprints": ["0123456789abcdef"] * 4,
        }
        entry.update({k: v for k, v in overrides.items() if k != "_doc"})
        doc = {"schema": SCENARIO_SCHEMA, "passed": entry["passed"],
               "wall_seconds": 1.5, "scenarios": [entry]}
        doc.update(overrides.get("_doc", {}))
        return doc

    scenario_cases = [
        ("well-formed scenario report validates", scenario_report(), True),
        ("wrong schema tag is rejected",
         scenario_report(_doc={"schema": "aequus-bench-v1"}), False),
        ("non-array scenarios are rejected",
         scenario_report(_doc={"scenarios": {}}), False),
        ("gate entry without a detail is rejected",
         scenario_report(gates=[{"gate": "invariants", "passed": True}]), False),
        ("passed flag disagreeing with gates is rejected",
         scenario_report(gates=[{"gate": "invariants", "passed": False,
                                 "detail": "violation"}]), False),
        ("fingerprint count must match the task count",
         scenario_report(fingerprints=["0123456789abcdef"] * 3), False),
        ("fingerprints must be 16 hex chars",
         scenario_report(fingerprints=["xyz"] * 4), False),
        ("metric summaries need all numeric fields",
         scenario_report(variants={"v": {"metrics": {"m": {"mean": 1.0}}}}), False),
        ("zero tasks is rejected", scenario_report(tasks=0, fingerprints=[]), False),
    ]

    # Backend-comparison block cases (scenarios/backend_faceoff.json emits
    # one row per variant; scenarios without the key stay valid — covered
    # by "well-formed scenario report validates" above).
    def comparison_row(**overrides):
        row = {"variant": "fig10_baseline", "backend": "aequus",
               "fairness_distance": 0.074, "starved_jobs": 11.0,
               "throughput_jobs_per_h": 36.0, "max_share_error": 0.052,
               "delta_latency_ms": 0.8}
        row.update(overrides)
        for key in [k for k, v in row.items() if v is None]:
            del row[key]
        return row

    scenario_cases += [
        ("comparison block with well-formed rows validates",
         scenario_report(comparison=[comparison_row()]), True),
        ("comparison row without a backend is rejected",
         scenario_report(comparison=[comparison_row(backend=None)]), False),
        ("comparison row with a non-numeric column is rejected",
         scenario_report(comparison=[comparison_row(starved_jobs="11")]), False),
        ("comparison row naming an unknown variant is rejected",
         scenario_report(comparison=[comparison_row(variant="lottery")]), False),
        ("empty comparison array is rejected",
         scenario_report(comparison=[]), False),
    ]

    # Variant "obs" blocks (merged registry snapshots) are checked like
    # metrics-dump snapshots.
    def with_obs(histogram):
        metrics = {"makespan": {"count": 4.0, "mean": 21600.0, "stddev": 0.0,
                                "ci95_half": 0.0, "min": 21600.0, "max": 21600.0}}
        obs = {"counters": {"bus.requests": 12}, "gauges": {},
               "histograms": {"wait_s": histogram}}
        return scenario_report(variants={"fig10_baseline": {"metrics": metrics, "obs": obs}})

    scenario_cases += [
        ("variant obs snapshot validates",
         with_obs({"bounds": [0.1, 0.2], "counts": [1, 2, 3], "count": 6}), True),
        ("variant obs histogram disagreeing with its buckets is rejected",
         with_obs({"bounds": [0.1, 0.2], "counts": [1, 2, 3], "count": 7}), False),
    ]
    for name, document, expected_ok in scenario_cases:
        errors = validate_scenario_report(document)
        ok = (not errors) == expected_ok
        print(f"  {'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            print(f"       expected {'pass' if expected_ok else 'errors'}, got: {errors}")
            failed += 1

    # Metrics-dump schema validator cases.
    def metrics_dump(**overrides):
        snapshot = {
            "counters": {"replay.envelopes": 120, "replay.dropped": 0},
            "gauges": {"queue.depth": {"last": 3.0, "sum": 12.0, "samples": 4,
                                       "mean": 3.0}},
            "histograms": {"wait_s": {"bounds": [0.1, 0.2], "counts": [1, 2, 3],
                                      "count": 6, "sum": 1.5, "min": 0.05,
                                      "max": 0.4, "mean": 0.25}},
        }
        snapshot.update({k: v for k, v in overrides.items() if k != "_doc"})
        doc = {"schema": METRICS_SCHEMA, "source": "bench",
               "snapshots": {"fig10_baseline/base": snapshot}}
        doc.update(overrides.get("_doc", {}))
        return doc

    metrics_cases = [
        ("well-formed metrics dump validates", metrics_dump(), True),
        ("wrong schema tag is rejected",
         metrics_dump(_doc={"schema": "aequus-bench-v1"}), False),
        ("empty snapshots object is rejected",
         metrics_dump(_doc={"snapshots": {}}), False),
        ("negative counter is rejected",
         metrics_dump(counters={"replay.dropped": -1}), False),
        ("non-integer counter is rejected",
         metrics_dump(counters={"replay.envelopes": 1.5}), False),
        ("gauge missing a field is rejected",
         metrics_dump(gauges={"queue.depth": {"last": 3.0}}), False),
        ("histogram without the overflow bucket is rejected",
         metrics_dump(histograms={"wait_s": {"bounds": [0.1, 0.2], "counts": [1, 2],
                                             "count": 3}}), False),
        ("histogram count disagreeing with its buckets is rejected",
         metrics_dump(histograms={"wait_s": {"bounds": [0.1], "counts": [1, 2],
                                             "count": 9}}), False),
        ("snapshot with empty sections validates",
         metrics_dump(counters={}, gauges={}, histograms={}), True),
    ]
    for name, document, expected_ok in metrics_cases:
        errors = validate_metrics_dump(document)
        ok = (not errors) == expected_ok
        print(f"  {'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            print(f"       expected {'pass' if expected_ok else 'errors'}, got: {errors}")
            failed += 1

    total = len(cases) + len(scenario_cases) + len(metrics_cases)
    if failed:
        print(f"SELF-TEST FAIL: {failed}/{total} case(s)")
        return 1
    print(f"SELF-TEST PASS: {total} case(s)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", type=Path, help="bench binary to run first")
    parser.add_argument("--bench-args", default="", help="arguments for --bench (one string)")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="where the bench writes its BENCH_*.json")
    parser.add_argument("--compare", type=Path,
                        help="already-emitted report (instead of --bench)")
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--tolerance", type=float, default=0.15)
    parser.add_argument("--abs-epsilon", type=float, default=1e-6,
                        help="absolute floor of the allowed band (near-zero baselines)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate's own unit cases and exit")
    parser.add_argument("--validate-scenario-report", type=Path, metavar="FILE",
                        help="schema-check a tools/scenario_run JSON report and exit")
    parser.add_argument("--validate-metrics-dump", type=Path, metavar="FILE",
                        help="schema-check an aequus-metrics-dump-v1 document and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.validate_metrics_dump:
        document = load(args.validate_metrics_dump, "metrics dump")
        errors = validate_metrics_dump(document)
        if errors:
            print(f"FAIL: {len(errors)} schema error(s) in {args.validate_metrics_dump}:")
            for error in errors:
                print("  -", error)
            return 1
        count = len(document.get("snapshots", {}))
        print(f"PASS: {args.validate_metrics_dump} is a valid {METRICS_SCHEMA} "
              f"document ({count} snapshot(s))")
        return 0
    if args.validate_scenario_report:
        document = load(args.validate_scenario_report, "scenario report")
        errors = validate_scenario_report(document)
        if errors:
            print(f"FAIL: {len(errors)} schema error(s) in {args.validate_scenario_report}:")
            for error in errors:
                print("  -", error)
            return 1
        count = len(document.get("scenarios", []))
        print(f"PASS: {args.validate_scenario_report} is a valid {SCENARIO_SCHEMA} "
              f"document ({count} scenario(s))")
        return 0
    if args.baseline is None:
        parser.error("--baseline is required (unless --self-test)")
    if bool(args.bench) == bool(args.compare):
        parser.error("exactly one of --bench / --compare is required")

    baseline = load(args.baseline, "baseline")

    if args.bench:
        if not args.bench.is_file():
            print(f"SKIP: bench binary {args.bench} not found")
            return SKIP
        args.out_dir.mkdir(parents=True, exist_ok=True)
        command = [str(args.bench), *shlex.split(args.bench_args),
                   "--json-dir", str(args.out_dir)]
        print("+", " ".join(command), flush=True)
        proc = subprocess.run(command)
        if proc.returncode != 0:
            print(f"FAIL: bench exited with {proc.returncode}")
            return 1
        report_path = args.out_dir / args.baseline.name
    else:
        report_path = args.compare

    emitted = load(report_path, "report")
    failures = compare(emitted, baseline, args.tolerance, args.abs_epsilon)

    wall = emitted.get("wall_seconds")
    print(f"report: {report_path} (wall={wall:.2f}s)"
          if isinstance(wall, float) else f"report: {report_path}")
    if failures:
        print(f"FAIL: {len(failures)} check(s) failed (metric band +-{args.tolerance:.0%}):")
        for failure in failures:
            print("  -", failure)
        return 1
    blocks = [baseline] + baseline.get("scenarios", [])
    metric_count = sum(len(v.get("metrics", {}))
                       for block in blocks for v in block.get("variants", {}).values())
    print(f"PASS: {metric_count} metric means within +-{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
