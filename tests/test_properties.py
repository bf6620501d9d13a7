"""Cross-cutting property-based tests (hypothesis).

The invariants the whole system hangs on:

1. whatever the corruption, the engine's output *is a repair*
   (Definition 4): applying it satisfies every constraint;
2. the repair is never larger than the injected error set (restoring
   the corrupted cells is always an available repair);
3. MILP cardinality equals brute-force cardinality (card-minimality,
   Definition 5) on small instances;
4. the validation loop with a truthful oracle converges on a
   consistent instance, every cell it changed holds the ground truth,
   and it recovers the truth unless the injected errors it left behind
   cancel each other out (then no constraint -- hence no repair and no
   inspection -- can see them);
5. repair application is idempotent on the repaired instance (a
   repaired database needs an empty repair).
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget, generate_catalog
from repro.repair.bruteforce import brute_force_card_minimal
from repro.repair.engine import RepairEngine
from repro.repair.interactive import OracleOperator, ValidationLoop

COMMON_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


#: The parameter space of every corrupted cash budget below.
WORKLOAD_SEEDS = st.integers(min_value=0, max_value=50)
ERROR_SEEDS = st.integers(min_value=0, max_value=50)
ERROR_COUNTS = st.integers(min_value=1, max_value=4)
YEAR_COUNTS = st.integers(min_value=1, max_value=2)


def cash_budget_case(workload_seed, error_seed, n_errors, n_years):
    workload = generate_cash_budget(n_years=n_years, seed=workload_seed)
    corrupted, injected = inject_value_errors(
        workload.ground_truth, n_errors, seed=error_seed
    )
    return workload, corrupted, injected


@st.composite
def corrupted_cash_budget(draw):
    return cash_budget_case(
        draw(WORKLOAD_SEEDS), draw(ERROR_SEEDS), draw(ERROR_COUNTS), draw(YEAR_COUNTS)
    )


class TestRepairInvariants:
    @settings(**COMMON_SETTINGS)
    @given(corrupted_cash_budget())
    def test_output_is_always_a_repair(self, case):
        workload, corrupted, injected = case
        engine = RepairEngine(corrupted, workload.constraints)
        outcome = engine.find_card_minimal_repair()
        assert engine.is_repair(outcome.repair)

    @settings(**COMMON_SETTINGS)
    @given(corrupted_cash_budget())
    def test_cardinality_bounded_by_injected_errors(self, case):
        workload, corrupted, injected = case
        engine = RepairEngine(corrupted, workload.constraints)
        outcome = engine.find_card_minimal_repair()
        assert outcome.cardinality <= len(injected)

    @settings(**COMMON_SETTINGS)
    @given(corrupted_cash_budget())
    def test_objective_equals_cardinality(self, case):
        workload, corrupted, injected = case
        engine = RepairEngine(corrupted, workload.constraints)
        outcome = engine.find_card_minimal_repair()
        assert round(outcome.objective) == outcome.cardinality

    @settings(**COMMON_SETTINGS)
    @given(corrupted_cash_budget())
    def test_repaired_instance_needs_empty_repair(self, case):
        workload, corrupted, injected = case
        engine = RepairEngine(corrupted, workload.constraints)
        repaired = engine.apply(engine.find_card_minimal_repair().repair)
        second_engine = RepairEngine(repaired, workload.constraints)
        assert second_engine.find_card_minimal_repair().cardinality == 0


class TestCardMinimality:
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=2),
    )
    def test_milp_matches_bruteforce(self, workload_seed, error_seed, n_errors):
        workload = generate_cash_budget(n_years=1, seed=workload_seed)
        corrupted, injected = inject_value_errors(
            workload.ground_truth, n_errors, seed=error_seed
        )
        engine = RepairEngine(corrupted, workload.constraints)
        milp = engine.find_card_minimal_repair()
        oracle = brute_force_card_minimal(
            corrupted, workload.constraints, max_cardinality=n_errors
        )
        assert oracle is not None
        assert milp.cardinality == oracle.cardinality


class TestValidationLoopConvergence:
    @settings(**COMMON_SETTINGS)
    @given(
        workload_seed=WORKLOAD_SEEDS,
        error_seed=ERROR_SEEDS,
        n_errors=ERROR_COUNTS,
        n_years=YEAR_COUNTS,
    )
    # Two of the four injected errors survive the loop here and cancel
    # out under their shared aggregate: the converged instance is
    # consistent, so nothing can point at them.
    @example(workload_seed=4, error_seed=25, n_errors=4, n_years=2)
    def test_oracle_loop_recovers_truth(
        self, workload_seed, error_seed, n_errors, n_years
    ):
        workload, corrupted, injected = cash_budget_case(
            workload_seed, error_seed, n_errors, n_years
        )
        truth = workload.ground_truth
        engine = RepairEngine(corrupted, workload.constraints)
        operator = OracleOperator(truth, acquired=corrupted)
        session = ValidationLoop(engine, operator).run()
        assert session.converged
        repaired = session.repaired_database
        assert RepairEngine(repaired, workload.constraints).is_consistent()
        leftover = set()
        for cell in truth.measure_cells():
            value = repaired.get_value(*cell)
            if value != corrupted.get_value(*cell):
                # Every cell the loop changed now holds the truth.
                assert value == truth.get_value(*cell), cell
            elif value != truth.get_value(*cell):
                leftover.add(cell)
        if not leftover:
            assert repaired == truth
            return
        # The truth was missed: the errors left behind must be injected
        # ones that cancel -- the brute-force oracle, independent of the
        # engine, finds nothing to repair in the converged instance.
        assert leftover <= {cell for cell, _old, _new in injected}
        oracle = brute_force_card_minimal(
            repaired, workload.constraints, max_cardinality=0
        )
        assert oracle is not None and oracle.cardinality == 0

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=1, max_value=2),
    )
    def test_catalog_loop_recovers_truth(self, seed, n_errors):
        workload = generate_catalog(
            n_categories=2, products_per_category=3, seed=seed
        )
        corrupted, injected = inject_value_errors(
            workload.ground_truth, n_errors, seed=seed
        )
        engine = RepairEngine(corrupted, workload.constraints)
        if engine.is_consistent():
            return
        operator = OracleOperator(workload.ground_truth, acquired=corrupted)
        session = ValidationLoop(engine, operator).run()
        assert session.converged
        assert session.repaired_database == workload.ground_truth
