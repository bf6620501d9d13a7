"""The MILP hot-path benchmark: the tracked perf trajectory.

Runs every scenario on both branch-and-bound backends (``bnb``: our
search over persistent HiGHS node LPs; ``bnb-simplex``: our search over
the from-scratch revised simplex) with today's default solver options,
and runs the same repair once more on the ``scipy`` backend
(``scipy.optimize.milp`` / HiGHS) as the reference.

Every B&B objective must match the ``scipy`` objective on every
scenario; a divergence fails the run.  The gated quantity is
``highs_ratio_geomean`` per backend: the geometric mean, across
scenarios, of own-B&B wall time over ``scipy`` wall time.  Both sides
run on the same host in the same process, back to back (see
:func:`_bracketed_ratios`), so host speed divides out and the ratio is
meaningful on noisy CI runners; smaller is better.

The small/medium scenarios additionally time the exact-arithmetic
certification layer (``repro.milp.certify``): the same repair with
``certify=True`` vs ``certify=False``, summarised as
``certify_overhead_geomean`` per backend.

``check_bench_regression.py`` gates both ratios against the committed
baseline: a fresh value more than 10% above it fails.

Results land in ``BENCH_milp.json`` at the repository root --
machine-readable, one entry per scenario with nodes / pivots /
wall-clock -- so the trajectory is diffable.  The ``history`` key of an
existing ``BENCH_milp.json`` (numbers of solve modes that no longer
exist, kept as ungated data) is carried over unchanged.

Run directly (CI does)::

    PYTHONPATH=src python benchmarks/bench_milp.py

Exits non-zero if any objective diverges.  The wall-clock numbers are
whatever the host gives us; the node/pivot counts are deterministic.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# The revised simplex LU-factorizes small bases; under a multi-threaded
# BLAS those calls spend more time handing work between threads than
# computing, and on a 2-core host their wall time swings 3-4x from run
# to run.  One BLAS thread keeps the gated ratios reproducible.  This
# must happen before numpy is first imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget, generate_catalog
from repro.repair.engine import RepairEngine

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_milp.json"

#: The solver options a caller gets by default, spelled out.
DEFAULT_MODE = dict(
    presolve=True,
    pricing="dantzig",
    seed_incumbent=True,
    cuts=True,
)

BACKENDS = ["bnb", "bnb-simplex"]

#: The reference backend every B&B run is compared (and timed) against.
REFERENCE_BACKEND = "scipy"

#: Timed B&B repairs per (scenario, backend), each bracketed by
#: ``scipy`` runs (see :func:`_bracketed_ratios`); certify-on repairs
#: are bracketed the same way by certify-off runs.  A scenario's ratio
#: is the median over the repetitions; reported wall times are minima.
REPEATS = 5

#: The e5 scenarios get no certify-overhead measurement: they dominate
#: bench wall-clock and certification cost scales with the same model
#: size as the solve itself, so the small/medium subset pins the
#: overhead ratio at a fraction of the bench budget.
LARGE_SCENARIOS = frozenset({"cash_budget_y3_e5", "catalog_c12_e5"})


def scenarios():
    """(name, corrupted database, constraints) triples, small to large."""
    cases = []
    for n_years, n_errors, seed in [(1, 2, 11), (2, 3, 23), (3, 4, 37), (3, 5, 43)]:
        workload = generate_cash_budget(n_years=n_years, seed=seed)
        corrupted, _ = inject_value_errors(
            workload.ground_truth, n_errors, seed=seed + 1
        )
        cases.append(
            (f"cash_budget_y{n_years}_e{n_errors}", corrupted, workload.constraints)
        )
    for n_categories, n_errors, seed in [(4, 2, 51), (8, 4, 67), (12, 5, 83)]:
        workload = generate_catalog(n_categories=n_categories, seed=seed)
        corrupted, _ = inject_value_errors(
            workload.ground_truth, n_errors, seed=seed + 1
        )
        cases.append(
            (f"catalog_c{n_categories}_e{n_errors}", corrupted, workload.constraints)
        )
    return cases


def _solver_options(backend: str) -> Dict:
    if backend == REFERENCE_BACKEND:
        return {}  # HiGHS takes none of the B&B options
    return {
        "presolve": DEFAULT_MODE["presolve"],
        "pricing": DEFAULT_MODE["pricing"],
        "cuts": DEFAULT_MODE["cuts"],
    }


def _timed_repair(database, constraints, backend: str, certify: bool):
    engine = RepairEngine(
        database,
        constraints,
        backend=backend,
        presolve=DEFAULT_MODE["presolve"],
        seed_incumbent=DEFAULT_MODE["seed_incumbent"],
        certify=certify,
    )
    started = time.perf_counter()
    outcome = engine.find_card_minimal_repair(**_solver_options(backend))
    return time.perf_counter() - started, engine, outcome


def _bracketed_ratios(
    run_reference: Callable[[], float],
    subjects: Dict[str, Callable[[], float]],
    repeats: int,
) -> Dict[str, float]:
    """Median ratio of each subject's run time to its bracketing reference.

    The runs go reference, subject, reference, subject, ..., reference,
    the subjects taking turns; each subject run is divided by the mean
    of the reference runs just before and just after it.  A shared host
    changes speed from one second to the next, and the bracket keeps
    both sides of a ratio in the same spell.
    """
    ratios: Dict[str, List[float]] = {name: [] for name in subjects}
    before = run_reference()
    for _ in range(repeats):
        for name, run in subjects.items():
            elapsed = run()
            after = run_reference()
            ratios[name].append(elapsed / max(0.5 * (before + after), 1e-9))
            before = after
    return {name: statistics.median(values) for name, values in ratios.items()}


def run_backends(
    database, constraints, repeats: int = REPEATS
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, float]]:
    """Fastest record per backend, and each B&B backend's ``scipy`` ratio."""
    best: Dict[str, Dict[str, float]] = {}

    def runner(backend: str) -> Callable[[], float]:
        def run() -> float:
            # certify=False: these timings track the *solver*; the cost
            # of certification is measured by run_certify_overhead.
            elapsed, engine, outcome = _timed_repair(
                database, constraints, backend, certify=False
            )
            if backend not in best or elapsed < best[backend]["wall_time"]:
                best[backend] = {
                    "wall_time": elapsed,
                    "nodes": sum(s.nodes for s in engine.solve_stats),
                    "pivots": sum(s.simplex_pivots for s in engine.solve_stats),
                    "objective": outcome.objective,
                    "cardinality": outcome.cardinality,
                }
            return elapsed

        return run

    ratios = _bracketed_ratios(
        runner(REFERENCE_BACKEND),
        {backend: runner(backend) for backend in BACKENDS},
        repeats,
    )
    return best, ratios


def run_certify_overhead(
    database, constraints, backend: str, repeats: int = REPEATS
) -> Dict[str, float]:
    """Wall-clock cost of exact certification on the default path.

    Times the same repair with the rational re-verification layer on
    (the default), bracketed by runs with it off, and reports the
    median on/off ratio and each side's fastest run.  Both sides must
    agree on the objective: certification is verification-only and
    never changes the answer on a clean instance.
    """
    timings = {True: math.inf, False: math.inf}
    objectives: Dict[bool, float] = {}

    def runner(certify: bool) -> Callable[[], float]:
        def run() -> float:
            elapsed, _engine, outcome = _timed_repair(
                database, constraints, backend, certify=certify
            )
            timings[certify] = min(timings[certify], elapsed)
            objectives[certify] = outcome.objective
            return elapsed

        return run

    ratio = _bracketed_ratios(runner(False), {"on": runner(True)}, repeats)["on"]
    return {
        "certified_wall_time": timings[True],
        "uncertified_wall_time": timings[False],
        "certify_overhead": ratio,
        "objectives_match": abs(objectives[True] - objectives[False]) <= 1e-9,
    }


def _geomean(ratios: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(r) for r in ratios))


def _history() -> Optional[Dict]:
    """The ungated ``history`` block of the existing results file."""
    try:
        return json.loads(OUTPUT.read_text(encoding="utf-8")).get("history")
    except (OSError, ValueError):
        return None


def main() -> int:
    results: List[Dict] = []
    diverged = False
    for name, database, constraints in scenarios():
        timed, highs_ratios = run_backends(database, constraints)
        reference = timed[REFERENCE_BACKEND]
        entry: Dict = {"scenario": name, REFERENCE_BACKEND: reference, "backends": {}}
        for backend in BACKENDS:
            default = timed[backend]
            same = abs(default["objective"] - reference["objective"]) <= 1e-9
            if not same:
                diverged = True
                print(
                    f"OBJECTIVE DIVERGENCE: {name}/{backend}: "
                    f"{default['objective']} vs {REFERENCE_BACKEND} "
                    f"{reference['objective']}",
                    file=sys.stderr,
                )
            record: Dict = {
                "default": default,
                "highs_ratio": highs_ratios[backend],
                "objectives_match": same,
            }
            if name not in LARGE_SCENARIOS:
                certify = run_certify_overhead(database, constraints, backend)
                if not certify["objectives_match"]:
                    diverged = True
                    print(
                        f"OBJECTIVE DIVERGENCE: {name}/{backend}: "
                        "certify-on vs certify-off",
                        file=sys.stderr,
                    )
                record["certify"] = certify
            entry["backends"][backend] = record
            overhead = (
                f"  certify {record['certify']['certify_overhead']:5.2f}x"
                if "certify" in record
                else ""
            )
            print(
                f"{name:20s} {backend:12s} "
                f"{default['wall_time'] * 1000:9.2f} ms "
                f"({default['nodes']:4d} nodes, {default['pivots']:5d} pivots)  "
                f"scipy {reference['wall_time'] * 1000:8.2f} ms  "
                f"{record['highs_ratio']:5.2f}x{overhead}"
            )
        results.append(entry)

    summary = {}
    for backend in BACKENDS:
        highs_ratios = [entry["backends"][backend]["highs_ratio"] for entry in results]
        certify_ratios = [
            entry["backends"][backend]["certify"]["certify_overhead"]
            for entry in results
            if "certify" in entry["backends"][backend]
        ]
        summary[backend] = {
            "highs_ratio_geomean": _geomean(highs_ratios),
            "min_highs_ratio": min(highs_ratios),
            "max_highs_ratio": max(highs_ratios),
            "certify_overhead_geomean": _geomean(certify_ratios),
        }
        print(
            f"{backend}: B&B / scipy wall-time geomean "
            f"{summary[backend]['highs_ratio_geomean']:.2f}x; "
            f"certify overhead geomean "
            f"{summary[backend]['certify_overhead_geomean']:.2f}x"
        )

    payload = {
        "benchmark": "milp_hot_path",
        "mode": dict(DEFAULT_MODE),
        "reference_backend": REFERENCE_BACKEND,
        "repeats": REPEATS,
        "scenarios": results,
        "summary": summary,
        "all_objectives_match": not diverged,
    }
    history = _history()
    if history is not None:
        payload["history"] = history
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT}")
    return 1 if diverged else 0


if __name__ == "__main__":
    raise SystemExit(main())
