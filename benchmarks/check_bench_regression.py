"""The bench regression gate.

Compares a freshly produced ``BENCH_milp.json`` against the committed
baseline and fails (exit 1) when a gated ratio regressed by more than
the tolerance (default 10%).  Geomeans of same-host ratios -- not raw
wall-clock -- are the gated quantity: both sides of each ratio are
measured on the same host in the same process, so host speed divides
out and the gate is meaningful on noisy CI runners.

Both ``BENCH_milp.json`` ratios are *smaller-is-better*, so their gate
is a ceiling: a fresh value more than 10% *above* the committed
baseline fails.

- ``highs_ratio_geomean`` -- own branch-and-bound wall time over the
  ``scipy`` (HiGHS) backend's wall time on the same scenario, geomean
  across scenarios: the search or its LP core got slower;
- ``certify_overhead_geomean`` -- certify-on wall time over
  certify-off wall time, geomean across the small/medium scenarios:
  certification started taxing the hot path.

Also writes a per-scenario markdown table (``--table``) that CI uploads
as an artifact, so a failing run shows exactly which scenario moved.

Usage::

    cp BENCH_milp.json bench_baseline.json      # the committed numbers
    PYTHONPATH=src python benchmarks/bench_milp.py
    python benchmarks/check_bench_regression.py \
        --baseline bench_baseline.json --fresh BENCH_milp.json \
        --table bench_table.md

A metric present only in the fresh file (schema growth) is reported
but never gated; a metric present only in the baseline is a hard
failure (the bench silently stopped measuring something).

The same gate also serves ``BENCH_service.json`` (from
``bench_service.py``): its summary uses the same per-backend shape, so
CI runs this script once per benchmark pair.  Its gated metric is
``warm_hit_rate``; the latency percentiles ride along ungated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

#: Relative slowdown beyond which the gate fails (0.10 == 10%).
DEFAULT_TOLERANCE = 0.10

#: Summary metrics under gate where *bigger* is better.
GATED_METRICS = (
    # BENCH_service.json: fraction of warm-run solve requests served
    # from cache.  Baseline is 1.0 by construction, so any drop at all
    # trips the 10% gate -- a drop means the store stopped serving.
    "warm_hit_rate",
)

#: Summary metrics under gate where *smaller* is better -- same-host
#: wall-time ratios.  The gate inverts: a fresh value more than
#: ``tolerance`` above the baseline fails.
OVERHEAD_METRICS = ("highs_ratio_geomean", "certify_overhead_geomean")


def load(path: Path) -> Dict:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def scenario_table(fresh: Dict) -> str:
    """A markdown per-scenario table of the fresh run."""
    lines = [
        "| scenario | backend | B&B (ms) | scipy (ms) | B&B / scipy "
        "| nodes | pivots | certify | match |",
        "|---|---|---:|---:|---:|---:|---:|---:|---|",
    ]
    for entry in fresh.get("scenarios", []):
        reference = entry.get("scipy", {}).get("wall_time", float("nan"))
        for backend, record in entry.get("backends", {}).items():
            default = record.get("default", {})
            wall = default.get("wall_time", float("nan"))
            ratio = record.get("highs_ratio", float("nan"))
            certify = record.get("certify", {}).get("certify_overhead")
            overhead = "-" if certify is None else f"{certify:.2f}x"
            match = "yes" if record.get("objectives_match") else "**NO**"
            lines.append(
                f"| {entry['scenario']} | {backend} "
                f"| {wall * 1000:.2f} | {reference * 1000:.2f} "
                f"| {ratio:.2f}x | {default.get('nodes', '-')} "
                f"| {default.get('pivots', '-')} | {overhead} | {match} |"
            )
    lines.append("")
    lines.append("| backend | metric | value |")
    lines.append("|---|---|---:|")
    for backend, metrics in fresh.get("summary", {}).items():
        for metric, value in metrics.items():
            lines.append(f"| {backend} | {metric} | {value:.3f} |")
    return "\n".join(lines) + "\n"


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--fresh", type=Path, required=True)
    parser.add_argument("--table", type=Path, default=None)
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE
    )
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    if args.table is not None:
        args.table.write_text(scenario_table(fresh), encoding="utf-8")
        print(f"wrote {args.table}")

    failures: List[str] = []
    if not fresh.get("all_objectives_match", False):
        failures.append("fresh run reports objective divergence")

    for backend, base_metrics in baseline.get("summary", {}).items():
        fresh_metrics = fresh.get("summary", {}).get(backend)
        if fresh_metrics is None:
            failures.append(f"{backend}: missing from fresh summary")
            continue
        for metric in GATED_METRICS:
            if metric not in base_metrics:
                continue  # baseline predates this metric: nothing to gate
            if metric not in fresh_metrics:
                failures.append(f"{backend}/{metric}: dropped from fresh run")
                continue
            base_value = float(base_metrics[metric])
            fresh_value = float(fresh_metrics[metric])
            floor = base_value * (1.0 - args.tolerance)
            verdict = "ok" if fresh_value >= floor else "REGRESSED"
            print(
                f"{backend:12s} {metric:24s} baseline {base_value:7.3f}  "
                f"fresh {fresh_value:7.3f}  floor {floor:7.3f}  {verdict}"
            )
            if fresh_value < floor:
                failures.append(
                    f"{backend}/{metric}: {fresh_value:.3f} < "
                    f"{floor:.3f} (baseline {base_value:.3f} "
                    f"- {args.tolerance:.0%})"
                )

        # Overhead metrics gate in the opposite direction: smaller is
        # better, so the bound is a ceiling above the baseline rather
        # than a floor below it.  The baseline-predates / dropped
        # semantics mirror the bigger-is-better metrics exactly.
        for metric in OVERHEAD_METRICS:
            if metric not in base_metrics:
                continue  # baseline predates this metric: nothing to gate
            if metric not in fresh_metrics:
                failures.append(f"{backend}/{metric}: dropped from fresh run")
                continue
            base_value = float(base_metrics[metric])
            fresh_value = float(fresh_metrics[metric])
            ceiling = base_value * (1.0 + args.tolerance)
            verdict = "ok" if fresh_value <= ceiling else "REGRESSED"
            print(
                f"{backend:12s} {metric:24s} baseline {base_value:7.3f}  "
                f"fresh {fresh_value:7.3f}  ceiling {ceiling:7.3f}  {verdict}"
            )
            if fresh_value > ceiling:
                failures.append(
                    f"{backend}/{metric}: {fresh_value:.3f} > "
                    f"{ceiling:.3f} (baseline {base_value:.3f} "
                    f"+ {args.tolerance:.0%})"
                )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench regression gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
