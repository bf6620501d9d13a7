"""The benchmark's own tests: shims, determinism, seeds, output checks.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each workload runs on a handful of small documents, so the whole file
takes about fifteen seconds.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dartbench.metrics import (
    DECLARATION,
    PER_LAYER,
    PassResult,
    TAIL_LADDER,
    per_layer,
    tail_percentile,
)
from dartbench.runner import measure_pass
from dartbench.tracing import LAYERS, Tracer, installed
from dartbench.workloads import (
    BudgetsWorkload,
    ServiceWorkload,
    SheetsWorkload,
    WORKLOADS,
    similarity,
    within_error_model,
)

ROOT = Path(__file__).resolve().parents[2]

#: Documents per traced test pass: one round of sheets, a few of the rest.
TEST_DOCS = {"sheets": 4, "budgets": 3, "service": 24}

#: Per-layer metrics that are counts, not times: they must repeat exactly.
COUNT_METRICS = [
    name
    for name, unit in PER_LAYER
    if unit == "count/doc"
] + [
    "milp.cache.hit_rate",
    "store.hit_rate",
    "milp.ladder_degraded_frac",
    "service.overloaded_frac",
    "service.fallback_frac",
    "store.bytes_per_row",
]


def small(name: str, workdir: Path):
    """Workload *name* with inputs shrunk for a quick test."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](workdir)
    if isinstance(workload, SheetsWorkload):
        workload.pool_size = 4
        workload.warm_shape = (2, 2)
    elif isinstance(workload, BudgetsWorkload):
        workload.pool_size = 3
        workload.years = (8, 10, 12)
        workload.warm_years = 8
    elif isinstance(workload, ServiceWorkload):
        workload.catalogue_size = 12
        workload.stream_size = TEST_DOCS["service"]
    return workload


def traced_run(name: str, seed: int, workdir: Path):
    workload = small(name, workdir)
    try:
        workload.setup(seed)
        plain = measure_pass(workload, n_docs=TEST_DOCS[name])
        tracer = Tracer()
        with installed(tracer):
            traced = measure_pass(workload, n_docs=TEST_DOCS[name], tracer=tracer)
    finally:
        workload.close()
    return tracer, plain, traced


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One traced pass per workload at seed 5, and a repeat at seed 5."""
    results = {}
    for name in WORKLOADS:
        for attempt in ("first", "again"):
            workdir = tmp_path_factory.mktemp(f"{name}-{attempt}")
            results[name, attempt] = traced_run(name, 5, workdir)
    return results


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shims_fire_exactly_on_the_mapped_layers(runs, name):
    tracer, _, _ = runs[name, "first"]
    fired = {span.layer for span in tracer.spans if span.parent >= 0}
    assert fired == set(WORKLOADS[name].layers)
    assert set(WORKLOADS[name].layers) <= set(LAYERS)
    wrapper_counted = tracer.counters["wrapping.msi_calls"] > 0 and (
        tracer.counters["wrapping.levenshtein_calls"] > 0
    )
    assert wrapper_counted == (name == "sheets")


def test_every_layer_fires_on_some_workload():
    assert set().union(*(w.layers for w in WORKLOADS.values())) == set(LAYERS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_account_for_the_latency(runs, name):
    tracer, plain, traced = runs[name, "first"]
    metrics = per_layer(tracer, traced, plain)
    assert set(metrics) == {metric for metric, _ in PER_LAYER}
    shares = sum(metrics[f"{layer}.share"] for layer in LAYERS)
    assert shares + metrics["trace.unaccounted_share"] == pytest.approx(1.0)
    for layer in LAYERS:
        fired = layer in WORKLOADS[name].layers
        assert (metrics[f"{layer}.share"] > 0) == fired, layer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_at_a_fixed_seed(runs, name):
    first = per_layer(*_metric_args(runs[name, "first"]))
    again = per_layer(*_metric_args(runs[name, "again"]))
    assert {m: first[m] for m in COUNT_METRICS} == {m: again[m] for m in COUNT_METRICS}


def _metric_args(run):
    tracer, plain, traced = run
    return tracer, traced, plain


def _input_values(item):
    """What the program receives for one prepared document."""
    if hasattr(item, "document"):
        return [table.logical_grid() for table in item.document.tables]
    database = item.database if hasattr(item, "database") else item.task.database
    return list(database.relation("CashBudget"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_different_seed_changes_the_inputs(tmp_path, name):
    inputs = []
    for seed in (5, 6, 5):
        workload = small(name, tmp_path / str(len(inputs)))
        try:
            workload.setup(seed)
            inputs.append([_input_values(workload.prepare(i)) for i in range(3)])
        finally:
            workload.close()
    assert inputs[0] != inputs[1]
    assert inputs[0] == inputs[2]


def test_a_tampered_final_database_fails_the_sheets_check(tmp_path):
    workload = small("sheets", tmp_path)
    try:
        workload.setup(5)
        item = workload.prepare(1)
        session = workload.execute(item)
        assert workload.check(item, session) is None
        cell = session.final_database.measure_cells()[0]
        value = session.final_database.get_value(*cell)
        session.final_database.set_value(*cell, value + 1)
        assert workload.check(item, session) is not None
    finally:
        workload.close()


def test_sheet_noise_is_cut_back_to_the_error_model(monkeypatch):
    from repro.acquisition.documents import Cell, Row
    from repro.core import balance_sheet_scenario
    from repro.datasets import generate_balance_sheet

    # Rows: assets, its two leaves, then liabilities and equity likewise.
    scenario = balance_sheet_scenario(generate_balance_sheet(depth=1, branching=2))
    clean = scenario.document
    table = clean.tables[0]
    rows = [list(row.cells) for row in table.rows]

    def shifted(cell, delta):
        return cell.with_text(str(int(cell.text) + delta))

    # Misread Company and Year, and a readable misread Item.
    rows[0][0] = rows[0][0].with_text("CCME-0")
    rows[0][1] = rows[0][1].with_text("2008")
    rows[0][2] = Cell(rows[0][2].text[:-1] + "o")
    # An unreadable row ("leaf" read "if", next to a misread Parent),
    # and two misread values that cancel out under "assets".
    rows[1][-2] = Cell("if")
    rows[1][-3] = Cell(rows[1][-3].text + "x")
    rows[1][-1] = shifted(rows[1][-1], 7)
    rows[2][-1] = shifted(rows[2][-1], -7)
    # A misread value that shows.
    rows[4][-1] = shifted(rows[4][-1], 100)
    noisy = clean.with_tables(
        [type(table)([Row(r) for r in rows], caption=table.caption)]
        + list(clean.tables[1:])
    )
    cut, reverted = within_error_model(scenario, noisy)
    texts = [[cell.text for cell in row] for row in cut.tables[0].rows]
    original = [[cell.text for cell in row] for row in table.rows]
    assert reverted == 5
    assert texts[0] == original[0][:2] + [rows[0][2].text] + original[0][3:]
    assert texts[1] == original[1][:-1] + [rows[1][-1].text]
    assert texts[2] == original[2]
    assert texts[4] == original[4][:-1] + [rows[4][-1].text]
    assert [texts[3]] + texts[5:] == [original[3]] + original[5:]
    assert similarity("leaf", "if") == 0.5
    assert similarity("Cash", "cash") == 1.0

    # With room for one misread value, only the first is kept.
    monkeypatch.setattr("dartbench.workloads.SHEET_MAX_MISREAD_VALUES", 1)
    cut, reverted = within_error_model(scenario, noisy)
    texts = [[cell.text for cell in row] for row in cut.tables[0].rows]
    assert reverted == 6
    assert texts[1][-1] == rows[1][-1].text
    assert texts[2:] == original[2:]


def test_a_planted_wrong_repair_fails_the_budgets_check(tmp_path):
    from repro.repair.updates import Repair

    workload = small("budgets", tmp_path)
    try:
        workload.setup(5)
        item = workload.prepare(0)
        engine, outcome = workload.execute(item)
        assert workload.check(item, (engine, outcome)) is None
        outcome.repair = Repair([])
        assert workload.check(item, (engine, outcome)) is not None
    finally:
        workload.close()


def test_a_changed_repeat_fails_the_service_check(tmp_path):
    from repro.repair.updates import Repair

    workload = small("service", tmp_path)
    try:
        workload.setup(5)
        workload.start_pass()
        key = workload.catalogue[0]
        item = workload.item_for("catalogue", key)
        result = workload.execute(item)
        assert workload.check(item, result) is None
        update = list(result.repair)[0]
        planted = dataclasses.replace(update, new_value=update.new_value + 1)
        result.repair = Repair([planted])
        assert workload.check(item, result) is not None
        result.status = "uncertified"
        assert workload.check(item, result) is not None
        assert workload.finish_pass() == []
    finally:
        workload.close()


def test_a_failed_warm_up_is_reported_not_raised(tmp_path):
    workload = small("budgets", tmp_path)

    def broken(item):
        raise KeyError("planted")

    workload.execute = broken
    try:
        workload.setup(5)
        assert workload.warm_up_result.startswith("warm-up raised KeyError")
    finally:
        workload.close()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(19) == (100.0, 0)
    assert tail_percentile(20) == (50.0, 10)
    assert tail_percentile(64) == (80.0, 12)
    assert tail_percentile(130) == (90.0, 13)
    assert tail_percentile(1500) == (99.0, 15)
    assert list(TAIL_LADDER) == sorted(TAIL_LADDER, reverse=True)


def test_throughput_is_the_median_over_rounds():
    second = 10**9
    walls = [second] * 4 + [9 * second] * 2
    assert PassResult([0] * 6, walls, [1.0] * 6, [], round_size=2).throughput() == 1.0
    assert PassResult([0], [2 * second], [0.5], [], round_size=6).throughput() == 1.0
    assert PassResult([0], [2 * second], [0.5], [], round_size=6).throughput(
        scaled=False
    ) == 0.5


def test_each_workload_fixes_its_tail_by_its_smallest_run(tmp_path):
    tails = {}
    for name, cls in WORKLOADS.items():
        workload = cls(tmp_path)
        tails[name] = tail_percentile(workload.min_rounds * workload.round_size)
    assert tails == {"sheets": (80.0, 10), "budgets": (90.0, 10), "service": (99.0, 10)}


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARATION["workloads"]] == list(WORKLOADS)


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "budgets",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
