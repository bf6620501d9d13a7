"""Unit + metamorphic tests for the tiered repair cascade.

Three layers:

- **unit**: violation classification, hitting-set search, budget
  semantics and tier accounting on hand-built instances where the
  right answer is known by construction;
- **metamorphic**: inject OCR errors with the real channel, run the
  cascade, and check the round-trip identity -- every closed-form
  (T1/T2) fix must restore the injected source value exactly
  (``misrepair_rate == 0`` at the default budget), across seeds;
- **integration**: the engine's ``strategy="cascade"`` produces a
  consistent database, stamps per-tier SolveStats, and keeps its cache
  entries separate from exact solves.
"""

import pytest

from repro.acquisition.ocr import inject_value_errors, number_preimages
from repro.constraints.grounding import ground_constraints
from repro.constraints.parser import parse_constraints
from repro.datasets import generate_cash_budget
from repro.evalkit.metrics import misrepair_rate, misrepair_report
from repro.milp.cache import SolveCache
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, Domain, RelationSchema
from repro.repair.cascade import (
    CLOSED_FORM_TIERS,
    TIER_BACKSOLVE,
    TIER_EXACT,
    TIER_GREEDY,
    TIER_INVERSION,
    TIERS,
    CascadeError,
    ViolationClass,
    classify_violations,
    hitting_sets_of_size,
    minimum_hitting_sets,
    run_cascade,
)
from repro.repair.engine import RepairEngine
from repro.repair.translation import RepairObjective, translate

from tests._seeds import derived_seeds, describe_seed


# ---------------------------------------------------------------------------
# Hand-built two-cell instance: R.a=5, R.b=2, constraint a - b = 0.
# Both cells have a channel pre-image clearing the row (5 could be a
# misread 2, 2 a misread 5), so T1 faces a genuine ambiguity.
# ---------------------------------------------------------------------------

AMBIGUOUS_DSL = """
function total(t) = sum(V) from R where T = $t

constraint eq:
    R(_, _) => total('a') - total('b') = 0
"""


def two_cell_instance(a=5, b=2):
    relation = RelationSchema.build(
        "R", [("T", Domain.STRING), ("V", Domain.INTEGER)], key=("T",)
    )
    schema = DatabaseSchema([relation], measure_attributes=[("R", "V")])
    database = Database(schema)
    database.insert("R", ["a", a])
    database.insert("R", ["b", b])
    _, constraints = parse_constraints(AMBIGUOUS_DSL)
    return database, constraints


class TestClassification:
    def test_running_example_routes_to_confusion(self, acquired, constraints):
        grounds = ground_constraints(constraints, acquired, require_steady=True)
        classified = classify_violations(grounds, acquired)
        assert classified, "Figure 3 instance must have violations"
        assert all(
            klass is ViolationClass.CONFUSION for _, klass in classified
        ), "every violated row touches a cell with OCR pre-images"

    def test_consistent_instance_classifies_nothing(
        self, ground_truth, constraints
    ):
        grounds = ground_constraints(
            constraints, ground_truth, require_steady=True
        )
        assert classify_violations(grounds, ground_truth) == []


class TestHittingSets:
    def test_single_row(self):
        a, b = ("R", 0, "V"), ("R", 1, "V")
        h, solutions, certified, complete = minimum_hitting_sets([{a, b}])
        assert h == 1 and certified and complete
        assert sorted(solutions) == sorted([frozenset({a}), frozenset({b})])

    def test_shared_cell_dominates(self):
        a, b, c = ("R", 0, "V"), ("R", 1, "V"), ("R", 2, "V")
        h, solutions, certified, _ = minimum_hitting_sets([{a, b}, {a, c}])
        assert h == 1 and certified
        assert solutions == [frozenset({a})]

    def test_disjoint_rows_need_two(self):
        a, b, c, d = [("R", i, "V") for i in range(4)]
        h, solutions, certified, complete = minimum_hitting_sets(
            [{a, b}, {c, d}]
        )
        assert h == 2 and certified and complete
        assert len(solutions) == 4  # {a,c} {a,d} {b,c} {b,d}

    def test_sets_of_size_hit_every_row(self):
        a, b, c = ("R", 0, "V"), ("R", 1, "V"), ("R", 2, "V")
        rows = [{a, b}, {a, c}]
        solutions, complete = hitting_sets_of_size(rows, 2)
        assert complete
        assert frozenset({b, c}) in solutions
        for solution in solutions:
            assert len(solution) == 2
            assert all(row & solution for row in rows)


class TestBudgetSemantics:
    def test_zero_budget_falls_through_on_ambiguity(self):
        database, constraints = two_cell_instance()
        repaired, report = run_cascade(
            database, constraints, misrepair_budget=0
        )
        t1 = report.tier(TIER_INVERSION)
        assert t1.ambiguous >= 1 and t1.resolved == 0
        assert report.budget_spent == 0
        assert not report.closed_form_fixes()
        # The certified greedy tier still clears it without the MILP:
        # the minimum hitting number is 1 and a 1-cell fix exists.
        assert report.tier(TIER_GREEDY).resolved == 1
        assert report.n_residual == 0

    def test_budget_buys_the_ambiguous_fix(self):
        database, constraints = two_cell_instance()
        repaired, report = run_cascade(
            database, constraints, misrepair_budget=1
        )
        assert report.budget_spent == 1
        fixes = report.closed_form_fixes()
        assert len(fixes) == 1
        assert fixes[0].tier == TIER_INVERSION
        assert fixes[0].ambiguous
        assert report.tier(TIER_GREEDY).resolved == 0
        assert report.n_residual == 0

    def test_negative_budget_rejected(self):
        database, constraints = two_cell_instance()
        with pytest.raises(CascadeError):
            run_cascade(database, constraints, misrepair_budget=-1)

    def test_original_database_never_mutated(self):
        database, constraints = two_cell_instance()
        before = database.copy()
        run_cascade(database, constraints, misrepair_budget=1)
        assert database == before

    def test_consistent_input_is_a_noop(self, ground_truth, constraints):
        repaired, report = run_cascade(ground_truth, constraints)
        assert report.n_violations == 0
        assert report.milp_free_fraction == 1.0
        assert repaired == ground_truth


class TestTierAccounting:
    def test_fallthrough_conservation(self):
        """hits + fallthroughs must account for every violated row."""
        workload = generate_cash_budget(n_years=2, seed=11)
        corrupted, _ = inject_value_errors(
            workload.ground_truth, 4, seed=1011
        )
        _, report = run_cascade(corrupted, workload.constraints)
        t1, t2, t3 = (
            report.tier(TIER_INVERSION),
            report.tier(TIER_BACKSOLVE),
            report.tier(TIER_GREEDY),
        )
        assert t1.attempted == report.n_violations
        assert t1.fallthroughs == t1.attempted - t1.resolved
        assert t2.attempted == t1.fallthroughs
        assert t3.attempted == t2.fallthroughs
        assert t3.fallthroughs == report.n_residual
        assert (
            t1.resolved + t2.resolved + t3.resolved
            == report.resolved_without_milp
        )

    def test_report_round_trips_to_dict(self):
        database, constraints = two_cell_instance()
        _, report = run_cascade(database, constraints, misrepair_budget=1)
        payload = report.as_dict()
        assert payload["milp_invoked"] is False
        assert payload["budget_spent"] == 1
        assert [t["tier"] for t in payload["tiers"]] == list(TIERS[:3])
        assert payload["fixes"][0]["tier"] == TIER_INVERSION


class TestMetamorphicRoundTrip:
    """Inject with the real channel, invert, compare against the truth.

    The honesty property: whatever subset of the injected corruptions
    the closed-form tiers claim to have inverted, the claimed source
    values must be the actual source values.  T3/T4 repairs may differ
    from the source (card-minimality is weaker than fidelity), which is
    exactly why they are excluded from the metric.
    """

    @pytest.mark.parametrize("seed", derived_seeds(6))
    @pytest.mark.parametrize("n_errors", [1, 3, 5])
    def test_closed_form_fixes_match_truth(self, seed, n_errors):
        workload = generate_cash_budget(n_years=2, seed=seed)
        corrupted, injected = inject_value_errors(
            workload.ground_truth, n_errors, seed=seed + 1000
        )
        repaired, report = run_cascade(corrupted, workload.constraints)
        audit = misrepair_report(report, injected)
        assert audit.n_misrepairs == 0, (
            f"closed-form fixes contradicted the injected truth at "
            f"{audit.misrepaired_cells} ({describe_seed(seed)})"
        )
        assert misrepair_rate(report, injected) == 0.0

    @pytest.mark.parametrize("seed", derived_seeds(4))
    def test_preimage_inversion_identity(self, seed):
        """Every injected corruption is among its output's pre-images."""
        workload = generate_cash_budget(n_years=2, seed=seed)
        _, injected = inject_value_errors(
            workload.ground_truth, 5, seed=seed + 2000
        )
        for cell, old, new in injected:
            original, rendered = str(int(old)), str(int(new))
            # The value boundary normalises the channel's raw text:
            # a deleted leading digit leaves a stripped leading zero
            # ("209" -> "09" -> 9) and "-0" collapses to 0, so the
            # actual output may be any zero-padding of the rendered
            # value up to the original's length, with the original's
            # sign restored.
            texts = [rendered]
            while len(texts[-1]) < len(original):
                texts.append("0" + texts[-1])
            if original.startswith("-"):
                texts.extend(
                    "-" + t for t in list(texts) if not t.startswith("-")
                )
            invertible = any(
                original in {text for text, _ in number_preimages(t)}
                for t in texts
            )
            # ``inject_value_errors`` falls back to old+1 when the
            # channel keeps producing degenerate text; only genuine
            # channel outputs are required to be invertible.
            assert invertible or new == old + 1, (
                f"{original!r} -> {rendered!r} at {cell} not invertible "
                f"({describe_seed(seed)})"
            )


class TestEngineIntegration:
    def test_cascade_outcome_matches_exact_cardinality(
        self, acquired, ground_truth, constraints
    ):
        exact = RepairEngine(acquired, constraints).find_card_minimal_repair()
        engine = RepairEngine(acquired, constraints, strategy="cascade")
        outcome = engine.find_card_minimal_repair()
        assert outcome.strategy == "cascade"
        assert outcome.cardinality == exact.cardinality
        assert engine.is_consistent(engine.apply(outcome.repair))

    def test_per_tier_stats_are_stamped(self, acquired, constraints):
        engine = RepairEngine(acquired, constraints, strategy="cascade")
        engine.find_card_minimal_repair()
        tiers_seen = [s.tier for s in engine.solve_stats if s.tier]
        assert tiers_seen, "cascade must emit tier-stamped stats"
        assert set(tiers_seen) <= set(TIERS)
        for stats in engine.solve_stats:
            if stats.backend == "cascade":
                assert stats.phase == "cascade"

    def test_invalid_strategy_rejected(self, acquired, constraints):
        with pytest.raises(ValueError):
            RepairEngine(acquired, constraints, strategy="telepathy")

    def test_cascade_requires_cardinality_objective(
        self, acquired, constraints
    ):
        with pytest.raises(CascadeError):
            RepairEngine(
                acquired,
                constraints,
                strategy="cascade",
                objective=RepairObjective.WEIGHTED_CARDINALITY,
            )

    def test_residue_runs_in_the_same_engine(self, monkeypatch):
        # Seed 0 with five errors leaves a residue for the exact tier.
        workload = generate_cash_budget(n_years=2, seed=0)
        corrupted, _ = inject_value_errors(
            workload.ground_truth, 5, seed=1000
        )
        constructed = []
        original_init = RepairEngine.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(RepairEngine, "__init__", counting_init)
        engine = RepairEngine(
            corrupted, workload.constraints, strategy="cascade"
        )
        outcome = engine.find_card_minimal_repair()
        assert outcome.cascade.milp_invoked
        assert constructed == [engine]
        residue = [s for s in outcome.stats if s.tier == TIER_EXACT]
        assert residue and residue == engine.solve_stats[-len(residue):]
        assert residue[0].tier_hits == outcome.cascade.n_residual
        assert all(s.tier_hits == 0 for s in residue[1:])

    def test_pins_bypass_the_cascade(self, acquired, constraints):
        engine = RepairEngine(acquired, constraints, strategy="cascade")
        outcome = engine.find_card_minimal_repair(
            pins={("CashBudget", 3, "Value"): 250.0}
        )
        # Pinned solves go straight to the exact path: no cascade report.
        assert outcome.cascade is None
        assert engine.is_consistent(engine.apply(outcome.repair))


class TestBatchIntegration:
    def test_batch_cascade_aggregates_tier_hits(self, tmp_path):
        from repro.repair.batch import RepairTask, repair_batch

        workload = generate_cash_budget(n_years=2, seed=4)
        tasks = []
        for i in range(3):
            corrupted, _ = inject_value_errors(
                workload.ground_truth, 2, seed=100 + i
            )
            tasks.append(
                RepairTask(
                    database=corrupted,
                    constraints=workload.constraints,
                    name=f"doc{i}",
                )
            )
        report = repair_batch(tasks, strategy="cascade")
        assert all(r.status == "repaired" for r in report.results)
        aggregates = report.aggregate()
        assert "milp_free" in aggregates
        hits = report.cascade_tier_hits
        assert set(hits) == set(TIERS)
        assert sum(hits.values()) > 0
        assert 0 <= report.n_milp_free <= len(tasks)

    def test_checkpoint_fingerprints_separate_strategies(self):
        from repro.repair.batch import RepairTask
        from repro.repair.checkpoint import task_fingerprint

        workload = generate_cash_budget(n_years=2, seed=4)
        corrupted, _ = inject_value_errors(
            workload.ground_truth, 2, seed=42
        )
        task = RepairTask(
            database=corrupted, constraints=workload.constraints, name="t"
        )
        exact = task_fingerprint(task)
        cascade = task_fingerprint(task, strategy="cascade")
        budgeted = task_fingerprint(
            task, strategy="cascade", misrepair_budget=1
        )
        assert exact != cascade != budgeted
        # Pre-cascade journals: the default strategy hashes identically
        # to fingerprints taken before the strategy parameter existed.
        assert exact == task_fingerprint(task, strategy="exact")


class TestCacheKeySeparation:
    def test_semantics_change_the_key(self, acquired, constraints):
        model = translate(acquired, constraints).model
        plain = SolveCache.key_for(model, "scipy", {})
        cascade = SolveCache.key_for(
            model, "scipy", {}, {"strategy": "cascade", "misrepair_budget": 0}
        )
        budget = SolveCache.key_for(
            model, "scipy", {}, {"strategy": "cascade", "misrepair_budget": 2}
        )
        assert plain != cascade
        assert cascade != budget

    def test_performance_options_still_filtered(self, acquired, constraints):
        model = translate(acquired, constraints).model
        semantics = {"strategy": "cascade", "misrepair_budget": 0}
        with_perf = SolveCache.key_for(
            model, "scipy", {"time_limit": 5.0}, semantics
        )
        without = SolveCache.key_for(model, "scipy", {}, semantics)
        assert with_perf == without
