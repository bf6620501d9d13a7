"""The parallel batch-repair engine vs. the sequential path.

The contract: whatever the worker count, batch repair returns results
byte-identical to running :class:`~repro.repair.engine.RepairEngine`
document by document, in the same order.  Duplicated documents in the
corpus exercise the LRU solve cache (identical grounded MILPs skip the
solver); a deliberately broken primary backend and a tiny deadline
exercise the fallback and timeout paths.

Seeds honour ``REPRO_TEST_SEED`` (see ``tests/_seeds.py``).
"""

from __future__ import annotations

import time

import pytest

import repro.milp.solver as solver_module
from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget
from repro.diagnostics import SolveTimeoutError
from repro.milp.cache import SolveCache
from repro.milp.deadline import Deadline
from repro.repair.batch import (
    RepairTask,
    execute_task,
    repair_batch,
    tasks_from_databases,
)
from repro.repair.engine import RepairEngine

from tests._seeds import derived_seeds, describe_seed

N_UNIQUE = 6
N_ERRORS = 2


@pytest.fixture(scope="module")
def corpus():
    """Unique corrupted documents plus exact duplicates of the first two."""
    workload = generate_cash_budget(n_years=2, seed=derived_seeds(1)[0])
    databases = []
    for seed in derived_seeds(N_UNIQUE):
        corrupted, _ = inject_value_errors(
            workload.ground_truth, N_ERRORS, seed=seed
        )
        databases.append(corrupted)
    databases.append(databases[0].copy())
    databases.append(databases[1].copy())
    return workload, databases


def sequential_reference(workload, databases):
    """The plain one-engine-per-document path the batch must match."""
    outcomes = []
    for database in databases:
        engine = RepairEngine(database, workload.constraints)
        outcomes.append(engine.find_card_minimal_repair())
    return outcomes


def assert_identical(report, reference, seed_note=""):
    assert len(report.results) == len(reference)
    for result, outcome in zip(report.results, reference):
        assert result.status == "repaired", (result.status, result.error, seed_note)
        # Byte-identical repairs: same updates, same rendering.
        assert str(result.repair) == str(outcome.repair), seed_note
        assert result.repair.updates == outcome.repair.updates, seed_note
        assert result.objective == pytest.approx(outcome.objective), seed_note


def test_sequential_batch_matches_engine_path(corpus):
    workload, databases = corpus
    reference = sequential_reference(workload, databases)
    report = repair_batch(
        tasks_from_databases(databases, workload.constraints), workers=None
    )
    assert_identical(report, reference, describe_seed(derived_seeds(1)[0]))
    # Results arrive in input order.
    assert [r.index for r in report.results] == list(range(len(databases)))
    assert [r.name for r in report.results] == [
        f"doc{i}" for i in range(len(databases))
    ]


@pytest.mark.parametrize("workers", [1, 4])
def test_parallel_batch_identical_to_sequential(corpus, workers):
    workload, databases = corpus
    reference = sequential_reference(workload, databases)
    report = repair_batch(
        tasks_from_databases(databases, workload.constraints),
        workers=workers,
        timeout=60,
    )
    assert report.workers == workers
    assert_identical(report, reference, describe_seed(derived_seeds(1)[0]))
    assert [r.index for r in report.results] == list(range(len(databases)))


def test_duplicate_documents_hit_the_cache(corpus):
    workload, databases = corpus
    # Sequential path: one cache for the whole corpus; the two
    # duplicated documents ground to fingerprint-identical MILPs.
    report = repair_batch(
        tasks_from_databases(databases, workload.constraints), workers=None
    )
    assert report.cache_hits >= 2
    assert report.cache_misses <= N_UNIQUE
    # The duplicates' repairs equal their originals' byte for byte.
    assert str(report.results[-2].repair) == str(report.results[0].repair)
    assert str(report.results[-1].repair) == str(report.results[1].repair)
    # A single worker also sees every document -> same hits.
    single = repair_batch(
        tasks_from_databases(databases, workload.constraints), workers=1
    )
    assert single.cache_hits >= 2
    # Disabling the cache removes the hits, results unchanged.
    uncached = repair_batch(
        tasks_from_databases(databases, workload.constraints),
        workers=None,
        cache_size=0,
    )
    assert uncached.cache_hits == 0
    for a, b in zip(report.results, uncached.results):
        assert str(a.repair) == str(b.repair)


def test_cache_hits_are_flagged_in_solve_stats(corpus):
    workload, databases = corpus
    report = repair_batch(
        tasks_from_databases(databases, workload.constraints), workers=None
    )
    hit_records = [s for s in report.all_stats if s.cache_hit]
    assert len(hit_records) == report.cache_hits
    for record in hit_records:
        assert record.status == "optimal"
        # A hit skips the solver: sub-millisecond, not a fresh solve.
        assert record.wall_time < 0.05


def test_consistent_document_short_circuits(corpus):
    workload, _ = corpus
    report = repair_batch(
        [RepairTask(workload.ground_truth, workload.constraints, name="clean")]
    )
    [result] = report.results
    assert result.status == "consistent"
    assert result.repair is None
    assert report.total_solves == 0


def test_fallback_on_primary_backend_error(corpus, monkeypatch):
    """A crashing primary backend must fall back to the alternate one
    and still produce the correct repair."""
    workload, databases = corpus

    def explode(model, **kw):
        raise RuntimeError("injected backend crash")

    monkeypatch.setitem(solver_module._BACKENDS, "scipy", explode)
    reference = RepairEngine(
        databases[0], workload.constraints, backend="bnb"
    ).find_card_minimal_repair()
    result = execute_task(
        RepairTask(databases[0], workload.constraints, name="crashy"),
        0,
        default_backend="scipy",
        cache=SolveCache(8),
    )
    assert result.status == "repaired"
    assert result.fallback_taken
    assert result.backend_used == "bnb"
    assert "injected backend crash" in result.error
    assert all(record.fallback for record in result.stats)
    assert str(result.repair) == str(reference.repair)


def test_timeout_triggers_fallback(corpus, monkeypatch):
    """A primary backend that cooperatively exhausts its budget is
    abandoned and retried on the alternate backend with a fresh one.

    The batch timeout is threaded into the backend as a ``time_limit``
    option (a monotonic :class:`~repro.milp.deadline.Deadline`, not a
    ``SIGALRM``); a budget-respecting backend notices expiry itself
    and raises the taxonomy's typed timeout.
    """
    workload, databases = corpus
    seen_budgets = []
    raised = []

    def exhaust(model, **kw):
        budget = kw.get("time_limit")
        seen_budgets.append(budget)
        deadline = Deadline(min(budget or 0.05, 0.05))
        try:
            while True:
                deadline.check()
                time.sleep(0.005)
        except SolveTimeoutError as error:
            raised.append(error)
            raise

    monkeypatch.setitem(solver_module._BACKENDS, "scipy", exhaust)
    started = time.perf_counter()
    result = execute_task(
        RepairTask(databases[0], workload.constraints),
        0,
        default_backend="scipy",
        timeout=0.3,
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 4.0, "the budget should cut the solve short"
    # The batch timeout reached the backend as its solve budget.
    assert seen_budgets and all(b is not None and b <= 0.3 for b in seen_budgets)
    assert raised and len(raised) == len(seen_budgets)
    assert result.status == "repaired"
    assert result.fallback_taken
    assert result.backend_used == "bnb"
    assert "exceeded" in result.error


def test_both_attempts_timing_out_reports_timeout(corpus, monkeypatch):
    """Primary AND fallback budgets expiring must surface as a
    ``"timeout"`` result carrying both attempts' accounting -- not a
    generic ``"error"`` with the stats dropped."""
    workload, databases = corpus

    def exhaust(model, **kw):
        deadline = Deadline(0.01)
        while True:
            deadline.check()
            time.sleep(0.002)

    monkeypatch.setitem(solver_module._BACKENDS, "scipy", exhaust)
    monkeypatch.setitem(solver_module._BACKENDS, "bnb", exhaust)
    result = execute_task(
        RepairTask(databases[0], workload.constraints),
        0,
        default_backend="scipy",
        timeout=0.2,
    )
    assert result.status == "timeout"
    assert result.fallback_taken
    assert "exceeded" in result.error
    # Both attempts are named in the combined error message.
    assert "primary 'scipy'" in result.error
    assert "fallback 'bnb'" in result.error


def test_unrepairable_task_reports_cleanly(corpus):
    """Pinning every involved cell of an inconsistent instance leaves
    no repair; both backends agree and the batch reports it."""
    workload, databases = corpus
    engine = RepairEngine(databases[0], workload.constraints)
    assert not engine.is_consistent()
    pins = {cell: None for cell in engine.involved_cells()}
    for cell in pins:
        pins[cell] = float(
            databases[0].get_value(cell[0], cell[1], cell[2])
        )
    report = repair_batch(
        [RepairTask(databases[0], workload.constraints, pins=pins)],
        workers=None,
    )
    [result] = report.results
    assert result.status == "unrepairable"
    assert result.fallback_taken  # the alternate backend confirmed it
    assert report.n_failed == 1


@pytest.mark.slow
def test_chunked_scheduling_preserves_order(corpus):
    """Odd chunk sizes and more workers than tasks still reassemble
    deterministically."""
    workload, databases = corpus
    tasks = tasks_from_databases(databases, workload.constraints)
    reference = repair_batch(tasks, workers=None)
    for chunksize in (1, 3, len(tasks) + 5):
        report = repair_batch(tasks, workers=2, chunksize=chunksize)
        for a, b in zip(reference.results, report.results):
            assert (a.index, a.name, str(a.repair)) == (
                b.index, b.name, str(b.repair)
            )
