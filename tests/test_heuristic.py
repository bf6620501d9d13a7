"""Tests for the greedy primal repair heuristic and incumbent seeding."""

from __future__ import annotations

import pytest

from repro.acquisition.ocr import inject_value_errors
from repro.datasets import (
    cash_budget_constraints,
    generate_cash_budget,
    paper_acquired_instance,
)
from repro.repair import engine as engine_module
from repro.repair.engine import RepairEngine
from repro.repair.heuristic import greedy_repair
from repro.repair.translation import translate

from tests._seeds import derived_seeds, describe_seed

SEEDS = derived_seeds(12)


def _corrupted(seed: int):
    workload = generate_cash_budget(n_years=1 + seed % 2, seed=seed)
    corrupted, injected = inject_value_errors(
        workload.ground_truth, 1 + seed % 3, seed=seed + 77
    )
    return workload, corrupted, injected


class TestGreedyRepair:
    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_result_is_verified_feasible(self, seed):
        workload, corrupted, _ = _corrupted(seed)
        translation = translate(corrupted, workload.constraints)
        result = greedy_repair(translation)
        if result is None:
            return  # the heuristic may legitimately stall
        # check_feasible already ran inside; assert the contract anyway.
        assert translation.model.check_feasible(result.assignment), describe_seed(seed)
        assert result.objective >= -1e-9, describe_seed(seed)
        assert result.changes == round(result.objective), describe_seed(seed)

    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_never_beats_the_exact_optimum(self, seed):
        workload, corrupted, _ = _corrupted(seed)
        translation = translate(corrupted, workload.constraints)
        result = greedy_repair(translation)
        if result is None:
            return
        exact = RepairEngine(
            corrupted, workload.constraints, backend="bnb"
        ).find_card_minimal_repair()
        assert result.objective >= exact.objective - 1e-9, describe_seed(seed)

    def test_consistent_instance_needs_no_changes(self):
        workload = generate_cash_budget(n_years=1, seed=3)
        translation = translate(workload.ground_truth, workload.constraints)
        result = greedy_repair(translation)
        assert result is not None
        assert result.changes == 0
        assert result.iterations == 0

    def test_pins_are_honoured(self):
        database = paper_acquired_instance()
        constraints = cash_budget_constraints()
        engine = RepairEngine(database, constraints)
        cell = engine.involved_cells()[0]
        pinned_value = float(
            database.get_value(cell[0], cell[1], cell[2])
        )
        translation = translate(
            database, constraints, pins={cell: pinned_value}
        )
        result = greedy_repair(translation)
        if result is None:
            return
        i = translation.index_of(cell)
        assert result.z_values[i] == pytest.approx(pinned_value)


def test_heuristic_is_not_an_engine_backend():
    # Every repair goes through an exact solve; the greedy repair only
    # seeds the search and serves as the cascade's T3 tier.
    with pytest.raises(ValueError, match="heuristic"):
        RepairEngine(
            paper_acquired_instance(),
            cash_budget_constraints(),
            backend="heuristic",
        )


class TestIncumbentSeeding:
    @pytest.mark.parametrize("backend", ["bnb", "bnb-simplex"])
    def test_seeded_solve_matches_unseeded_objective(self, backend):
        workload, corrupted, _ = _corrupted(SEEDS[0])
        seeded_engine = RepairEngine(
            corrupted, workload.constraints, backend=backend
        )
        seeded = seeded_engine.find_card_minimal_repair()
        plain = RepairEngine(
            corrupted,
            workload.constraints,
            backend=backend,
            seed_incumbent=False,
            presolve=False,
        ).find_card_minimal_repair()
        assert seeded.objective == pytest.approx(plain.objective, abs=1e-6)
        record = seeded_engine.solve_stats[-1]
        if record.heuristic_seeded:
            assert record.heuristic_gap is not None
            assert record.heuristic_gap >= 0.0

    @staticmethod
    def _check_seeds_against_optima(monkeypatch, database, constraints):
        # Record the greedy seed behind every exact solve: the seed is a
        # verified repair, so it can never beat the proven optimum, and
        # the record's gap is exactly the distance between the two.
        seeds = []

        def recording(translation, **kwargs):
            result = greedy_repair(translation, **kwargs)
            seeds.append(result)
            return result

        monkeypatch.setattr(engine_module, "greedy_repair", recording)
        engine = RepairEngine(database, constraints, backend="bnb")
        outcome = engine.find_card_minimal_repair()
        assert engine.is_repair(outcome.repair)
        assert len(seeds) == len(engine.solve_stats) >= 1
        for seed_result, record in zip(seeds, engine.solve_stats):
            assert record.heuristic_seeded == (seed_result is not None)
            if seed_result is None or record.objective is None:
                continue
            assert seed_result.objective >= record.objective - 1e-9
            assert record.heuristic_gap == pytest.approx(
                seed_result.objective - record.objective, abs=1e-9
            )
        return engine, outcome

    def test_paper_running_example(self, monkeypatch):
        engine, outcome = self._check_seeds_against_optima(
            monkeypatch, paper_acquired_instance(), cash_budget_constraints()
        )
        assert outcome.cardinality >= 1
        assert engine.solve_stats[-1].heuristic_seeded

    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_seed_never_beats_the_optimum_it_seeds(self, seed, monkeypatch):
        workload, corrupted, _ = _corrupted(seed)
        self._check_seeds_against_optima(
            monkeypatch, corrupted, workload.constraints
        )

    def test_seeding_can_be_disabled(self):
        workload, corrupted, _ = _corrupted(SEEDS[1])
        engine = RepairEngine(
            corrupted,
            workload.constraints,
            backend="bnb",
            seed_incumbent=False,
        )
        engine.find_card_minimal_repair()
        assert not engine.solve_stats[-1].heuristic_seeded
