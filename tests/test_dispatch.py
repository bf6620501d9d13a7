"""One per-task dispatch path for ``repair_batch`` and ``RepairService``.

Both entry points run every task through
:func:`~repro.repair.batch.execute_task` and journal through
:class:`~repro.repair.checkpoint.RunJournal`, so over the same corpus
they must produce the same records -- field for field, wall times
aside -- and each must replay a journal written before the two shared
one dispatcher.

The corpus holds five cash-budget documents: one consistent, two
plainly repaired, one whose every involved cell is pinned to its
(wrong) acquired value -- ``unrepairable`` under
``on_infeasible="raise"``, ``relaxed`` under ``"relax"`` -- and one
routed to a primary backend that always raises, so it is repaired on
the alternate.  Its seeds are fixed (not ``REPRO_TEST_SEED``-derived)
because ``tests/data/dispatch_journals/`` holds journals written from
exactly this corpus.
"""

from __future__ import annotations

import re
import shutil
from pathlib import Path
from typing import Callable, List

import pytest

import repro.milp.solver as solver_module
from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget
from repro.repair.batch import RepairTask, repair_batch
from repro.repair.checkpoint import result_to_record
from repro.repair.engine import RepairEngine
from repro.repair.service import RepairService, ServiceConfig

SEED = 20261018

#: A backend name whose solver always raises; its alternate is ``bnb``.
BROKEN_BACKEND = "broken"


def _explode(model, **options):
    raise RuntimeError("injected primary-backend failure")


def install_broken_backend(setitem: Callable[[dict, str, object], None]) -> None:
    """Register :data:`BROKEN_BACKEND` via *setitem* (monkeypatch's)."""
    setitem(solver_module._BACKENDS, BROKEN_BACKEND, _explode)
    setitem(solver_module.FALLBACK_BACKEND, BROKEN_BACKEND, "bnb")


def build_corpus() -> List[RepairTask]:
    workload = generate_cash_budget(n_years=2, seed=SEED)
    constraints = workload.constraints
    corrupted = [
        inject_value_errors(workload.ground_truth, 2, seed=SEED + offset)[0]
        for offset in range(4)
    ]
    engine = RepairEngine(corrupted[2], constraints)
    pins = {
        cell: float(corrupted[2].get_value(*cell))
        for cell in engine.involved_cells()
    }
    return [
        RepairTask(workload.ground_truth, constraints, name="consistent"),
        RepairTask(corrupted[0], constraints, name="repaired-a"),
        RepairTask(corrupted[1], constraints, name="repaired-b"),
        RepairTask(corrupted[2], constraints, name="pinned", pins=pins),
        RepairTask(
            corrupted[3], constraints, name="primary-raises",
            backend=BROKEN_BACKEND,
        ),
    ]


#: Journals written over the corpus by the separate batch and service
#: dispatchers that preceded ``execute_task``'s shared path.
JOURNALS = Path(__file__).resolve().parent / "data" / "dispatch_journals"

STATUSES = {
    "raise": ["consistent", "repaired", "repaired", "unrepairable", "repaired"],
    "relax": ["consistent", "repaired", "repaired", "relaxed", "repaired"],
}


@pytest.fixture
def corpus(monkeypatch):
    install_broken_backend(monkeypatch.setitem)
    return build_corpus()


def _record(result, *, cache_flags: bool = True):
    """Every field of *result* except wall times (and maybe cache flags)."""
    record = result_to_record(result, "")
    record["resumed"] = result.resumed
    del record["wall_time"]
    for stats in record["stats"]:
        del stats["wall_time"], stats["phase_times"]
        if not cache_flags:
            del stats["cache_hit"]
    return record


@pytest.mark.parametrize("on_infeasible", ["raise", "relax"])
def test_batch_and_service_produce_identical_records(corpus, on_infeasible):
    batch = repair_batch(corpus, on_infeasible=on_infeasible)
    with RepairService(ServiceConfig(on_infeasible=on_infeasible)) as service:
        served = service.run(corpus)
        # One failure on the raising primary stays under the threshold.
        assert all(b.state == "closed" for b in service.breakers.values())
    assert [r.status for r in batch.results] == STATUSES[on_infeasible]
    assert [_record(r) for r in served.results] == [
        _record(r) for r in batch.results
    ]
    pinned, rerouted = batch.results[3], batch.results[4]
    # The alternate backend confirms an unrepairable verdict.
    assert pinned.fallback_taken == (on_infeasible == "raise")
    assert rerouted.fallback_taken and rerouted.backend_used == "bnb"
    assert "primary backend 'broken' failed" in rerouted.error


def test_pool_matches_in_process(corpus):
    in_process = repair_batch(corpus)
    pooled = repair_batch(corpus, workers=2)
    assert [_record(r, cache_flags=False) for r in pooled.results] == [
        _record(r, cache_flags=False) for r in in_process.results
    ]


def test_batch_replays_an_earlier_journal(corpus, tmp_path):
    journal = tmp_path / "batch.journal"
    shutil.copy(JOURNALS / "batch-relax.journal", journal)
    fresh = repair_batch(corpus, on_infeasible="relax")
    replayed = repair_batch(corpus, on_infeasible="relax", checkpoint=str(journal))
    assert replayed.n_resumed == len(corpus)  # relaxed record included
    assert [{**_record(r), "resumed": False} for r in replayed.results] == [
        _record(r) for r in fresh.results
    ]


def test_service_replays_an_earlier_journal(corpus, tmp_path):
    journal = tmp_path / "service.journal"
    shutil.copy(JOURNALS / "service-raise.journal", journal)
    fresh = repair_batch(corpus)
    with RepairService(ServiceConfig(checkpoint=str(journal))) as service:
        replayed = service.run(corpus)
    assert replayed.n_resumed == len(corpus)
    assert [(r.status, str(r.repair), r.objective) for r in replayed.results] == [
        (r.status, str(r.repair), r.objective) for r in fresh.results
    ]


def test_service_hands_each_result_over_once():
    task = build_corpus()[1]
    with RepairService(ServiceConfig()) as service:
        for served in range(1, 4):
            ticket = service.submit(task)
            service.process_pending()
            assert service.result(ticket).status == "repaired"
            assert service.result(ticket) is None
            assert service.health()["completed"] == served


# Values the report gave over this corpus before its properties were
# folded into aggregate(); ``None`` marks the timing entries.
PINNED_AGGREGATES = {
    "raise": {
        "tasks": 5.0, "repaired": 3.0, "consistent": 1.0, "failed": 1.0,
        "fallbacks": 2.0, "approximate": 0.0, "relaxed": 0.0,
        "quarantined": 0.0, "solves": 11.0, "cache_hits": 0.0,
        "cache_misses": 11.0, "nodes": 19.0, "simplex_pivots": 137.0,
        "presolve_reductions": 164.0, "warm_start_hits": 0.0,
        "warm_start_fallbacks": 0.0, "seeded_solves": 1.0, "certified": 3.0,
        "uncertified": 0.0, "degraded": 0.0, "cuts_rejected": 0.0,
        "wall_time": None, "solver_seconds": None,
        "cascade_t1-inversion": 0.0, "cascade_t2-backsolve": 0.0,
        "cascade_t3-greedy": 0.0, "cascade_t4-exact": 0.0, "milp_free": 0.0,
    },
    "relax": {
        "tasks": 5.0, "repaired": 3.0, "consistent": 1.0, "failed": 0.0,
        "fallbacks": 1.0, "approximate": 0.0, "relaxed": 1.0,
        "quarantined": 0.0, "solves": 10.0, "cache_hits": 0.0,
        "cache_misses": 10.0, "nodes": 20.0, "simplex_pivots": 137.0,
        "presolve_reductions": 0.0, "warm_start_hits": 0.0,
        "warm_start_fallbacks": 0.0, "seeded_solves": 1.0, "certified": 3.0,
        "uncertified": 0.0, "degraded": 0.0, "cuts_rejected": 0.0,
        "wall_time": None, "solver_seconds": None,
        "cascade_t1-inversion": 0.0, "cascade_t2-backsolve": 0.0,
        "cascade_t3-greedy": 0.0, "cascade_t4-exact": 0.0, "milp_free": 0.0,
    },
}

PINNED_SUMMARIES = {
    "raise": "5 task(s) in <t>s (no worker(s)): 3 repaired, 1 consistent, "
    "1 failed, 2 fallback(s), 3 certified; 11 solve(s), 0 cache hit(s) / "
    "11 miss(es), 19 node(s), 137 pivot(s)",
    "relax": "5 task(s) in <t>s (no worker(s)): 3 repaired, 1 consistent, "
    "0 failed, 1 fallback(s), 3 certified, 1 relaxed; 10 solve(s), "
    "0 cache hit(s) / 10 miss(es), 20 node(s), 137 pivot(s)",
}


@pytest.mark.parametrize("on_infeasible", ["raise", "relax"])
def test_report_aggregate_and_summary_are_pinned(corpus, on_infeasible):
    report = repair_batch(corpus, on_infeasible=on_infeasible)
    pinned = PINNED_AGGREGATES[on_infeasible]
    aggregate = report.aggregate()
    assert list(aggregate) == list(pinned)
    assert {k: v for k, v in aggregate.items() if pinned[k] is not None} == {
        k: v for k, v in pinned.items() if v is not None
    }
    summary = re.sub(r" in [0-9.]+s ", " in <t>s ", report.summary())
    assert summary == PINNED_SUMMARIES[on_infeasible]
