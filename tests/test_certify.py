"""Exact-arithmetic certification and the numerics degradation ladder.

Covers the PR's robustness contract end to end:

- the certifier rejects a planted wrong incumbent (MILP level) and a
  planted wrong repair survives nowhere;
- metamorphic invariance: power-of-two row scaling and variable
  permutation leave the repair MILP's optimal cardinality and its
  certification verdict unchanged;
- the :class:`~repro.milp.certify.NumericsGovernor` declares exactly
  the documented ladder per backend and skips inapplicable rungs;
- a backend that persistently returns corrupt answers is walked down
  the ladder to the independent scipy rung (``degraded=True``), and a
  fully-poisoned ladder raises
  :class:`~repro.diagnostics.NumericInstabilityError` (classified
  ``"uncertified"``);
- cache hygiene: ladder-degraded answers never populate the solve
  cache under the pristine fingerprint, and a poisoned cache hit is
  re-certified on read and re-solved instead of served;
- checkpoint hygiene: uncertified results are never journaled, so a
  resume re-derives them while certified neighbours replay;
- seeded numeric-noise chaos (:func:`repro.faultinject.inject_numeric_noise`)
  leaves every solve certified with the same repair cardinality;
- exact cut-witness replay rejects a cut that would shave off a known
  integer-feasible point.

Seeds honour ``REPRO_TEST_SEED`` (see ``tests/_seeds.py``).
"""

from __future__ import annotations

import json

import pytest

from repro.datasets.cashbudget import cash_budget_constraints, paper_ground_truth
from repro.diagnostics import NumericInstabilityError, classify_failure
from repro.faultinject import inject_numeric_noise
from repro.milp import solver
from repro.milp.cache import SolveCache
from repro.milp.certify import (
    Certificate,
    NumericsGovernor,
    certify_database,
    certify_repair,
    certify_solution,
    cut_excludes_point,
)
from repro.milp.cuts import Cut, cut_rejected_by_witness
from repro.milp.model import (
    Constraint,
    LinExpr,
    MILPModel,
    Sense,
    Solution,
    SolveStatus,
    VarType,
)
from repro.milp.solver import solve_with_stats
from repro.repair.batch import BatchItemResult, RepairTask, repair_batch
from repro.repair.checkpoint import record_to_result, result_to_record
from repro.repair.engine import RepairEngine

from tests._seeds import derived_seeds, describe_seed


def small_milp() -> MILPModel:
    """min x+y  s.t.  x+2y <= 8, 3x+y >= 3, x-y = 1, x,y in [0,10] int."""
    model = MILPModel("cert-small")
    model.add_variable("x", VarType.INTEGER, 0, 10)
    model.add_variable("y", VarType.INTEGER, 0, 10)
    model.add_constraint(Constraint(LinExpr({0: 1.0, 1: 2.0}), Sense.LE, 8.0, "r1"))
    model.add_constraint(Constraint(LinExpr({0: 3.0, 1: 1.0}), Sense.GE, 3.0, "r2"))
    model.add_constraint(Constraint(LinExpr({0: 1.0, 1: -1.0}), Sense.EQ, 1.0, "r3"))
    model.set_objective(LinExpr({0: 1.0, 1: 1.0}))
    return model


def corrupted_paper_task(bump: float = 7.0):
    """The paper's cash-budget instance with one corrupted measure cell."""
    database = paper_ground_truth().copy()
    relation, tuple_id, attribute = database.measure_cells()[0]
    database.set_value(
        relation, tuple_id, attribute,
        float(database.get_value(relation, tuple_id, attribute)) + bump,
    )
    return database, cash_budget_constraints()


# ---------------------------------------------------------------------------
# The certifier itself
# ---------------------------------------------------------------------------


class TestCertifySolution:
    def test_valid_incumbent_certifies(self):
        model = small_milp()
        solution, stats = solve_with_stats(model, backend="bnb", certify=True)
        assert stats.certified is True
        assert stats.certification == "milp"
        assert stats.ladder_steps == ["as-requested"]
        assert not stats.degraded

    def test_planted_wrong_incumbent_is_rejected(self):
        model = small_milp()
        solution, _ = solve_with_stats(model, backend="bnb")
        tampered = Solution(
            status=solution.status,
            objective=solution.objective,
            values=dict(solution.values, x=9.0),
            stats=dict(solution.stats),
        )
        certificate = certify_solution(model, tampered)
        assert certificate.certified is False
        assert certificate.failures  # names the violated fact

    def test_wrong_objective_is_rejected(self):
        model = small_milp()
        solution, _ = solve_with_stats(model, backend="bnb")
        tampered = Solution(
            status=solution.status,
            objective=float(solution.objective) - 1.0,
            values=dict(solution.values),
            stats=dict(solution.stats),
        )
        certificate = certify_solution(model, tampered)
        assert certificate.certified is False
        assert any("objective" in failure for failure in certificate.failures)

    def test_fractional_integer_variable_is_rejected(self):
        model = small_milp()
        solution, _ = solve_with_stats(model, backend="bnb")
        tampered = Solution(
            status=solution.status,
            objective=solution.objective,
            values=dict(solution.values, x=solution.values["x"] + 0.5),
            stats=dict(solution.stats),
        )
        certificate = certify_solution(model, tampered)
        assert certificate.certified is False

    def test_unusable_status_certifies_as_not_applicable(self):
        model = small_milp()
        certificate = certify_solution(
            model, Solution(status=SolveStatus.INFEASIBLE)
        )
        assert certificate.certified is True
        assert certificate.level == "not-applicable"

    def test_certificate_round_trips_as_dict(self):
        certificate = Certificate(
            certified=False, level="milp", checks=3, failures=["boom"]
        )
        payload = json.loads(json.dumps(certificate.as_dict()))
        assert payload["certified"] is False
        assert payload["failures"] == ["boom"]
        assert "REJECTED" in str(certificate)


class TestDocumentCertificates:
    def test_repair_outcome_carries_document_certificate(self):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints)
        outcome = engine.find_card_minimal_repair()
        assert outcome.certified is True
        assert outcome.certificate.level == "document"
        assert outcome.certificate.checks > 0
        assert all(s.certified is not False for s in engine.solve_stats)

    def test_cascade_outcome_carries_database_certificate(self):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints, strategy="cascade")
        outcome = engine.find_card_minimal_repair()
        assert outcome.certified is True
        assert outcome.certificate.level == "database"

    def test_certify_off_leaves_outcome_unflagged(self):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints, certify=False)
        outcome = engine.find_card_minimal_repair()
        assert outcome.certified is None
        assert outcome.certificate is None

    def test_planted_wrong_repair_is_rejected(self):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints)
        outcome = engine.find_card_minimal_repair()
        from repro.repair.updates import AtomicUpdate, Repair

        update = next(iter(outcome.repair.updates))
        wrong = Repair(
            [
                AtomicUpdate(
                    relation=update.relation,
                    tuple_id=update.tuple_id,
                    attribute=update.attribute,
                    old_value=update.old_value,
                    new_value=update.new_value + 13.0,
                )
            ]
        )
        certificate = certify_repair(outcome.translation, wrong)
        assert certificate.certified is False

    def test_certify_database_flags_inconsistent_state(self):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints)
        bad = certify_database(engine.ground_system, database)
        assert bad.certified is False
        outcome = engine.find_card_minimal_repair()
        good = certify_database(engine.ground_system, engine.apply(outcome.repair))
        assert good.certified is True


# ---------------------------------------------------------------------------
# Metamorphic invariance: the repair MILP under answer-preserving noise
# ---------------------------------------------------------------------------


def _repair_model():
    """The actual repair MILP of a corrupted paper instance.

    Its optimal objective *is* the repair cardinality, so invariance of
    the objective under the transformations below is invariance of the
    repair cardinality.
    """
    database, constraints = corrupted_paper_task()
    engine = RepairEngine(database, constraints)
    outcome = engine.find_card_minimal_repair()
    return outcome.translation.model, outcome.cardinality


def _scale_rows_pow2(model: MILPModel, seed: int) -> MILPModel:
    """Every row scaled by a seed-chosen power of two (bit-exact)."""
    import random

    rng = random.Random(seed)
    scaled = MILPModel(model.name)
    for variable in model.variables:
        scaled.add_variable(
            variable.name, variable.var_type, variable.lower, variable.upper
        )
    for constraint in model.constraints:
        factor = 2.0 ** rng.randint(-3, 6)
        scaled.add_constraint(
            Constraint(
                LinExpr(
                    {
                        index: coefficient * factor
                        for index, coefficient in constraint.expr.coefficients.items()
                    },
                    constraint.expr.constant * factor,
                ),
                constraint.sense,
                constraint.rhs * factor,
                constraint.name,
            )
        )
    scaled.set_objective(model.objective)
    return scaled


def _permute_variables(model: MILPModel, seed: int) -> MILPModel:
    """The same MILP with variables re-registered in a shuffled order."""
    import random

    rng = random.Random(seed)
    order = list(range(len(model.variables)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    permuted = MILPModel(model.name)
    for old in order:
        variable = model.variables[old]
        permuted.add_variable(
            variable.name, variable.var_type, variable.lower, variable.upper
        )
    for constraint in model.constraints:
        permuted.add_constraint(
            Constraint(
                LinExpr(
                    {
                        new_index[index]: coefficient
                        for index, coefficient in constraint.expr.coefficients.items()
                    },
                    constraint.expr.constant,
                ),
                constraint.sense,
                constraint.rhs,
                constraint.name,
            )
        )
    permuted.set_objective(
        LinExpr(
            {
                new_index[index]: coefficient
                for index, coefficient in model.objective.coefficients.items()
            },
            model.objective.constant,
        )
    )
    return permuted


@pytest.mark.parametrize("backend", ["bnb", "bnb-simplex"])
class TestMetamorphicInvariance:
    def test_pow2_row_scaling_preserves_cardinality_and_verdict(self, backend):
        model, cardinality = _repair_model()
        base, base_stats = solve_with_stats(model, backend=backend, certify=True)
        assert base_stats.certified is True
        for seed in derived_seeds(3):
            scaled = _scale_rows_pow2(model, seed)
            solution, stats = solve_with_stats(
                scaled, backend=backend, certify=True
            )
            assert stats.certified is True, describe_seed(seed)
            assert solution.objective == pytest.approx(
                base.objective, abs=1e-6
            ), describe_seed(seed)
            assert solution.objective == pytest.approx(
                float(cardinality), abs=1e-6
            ), describe_seed(seed)

    def test_variable_permutation_preserves_cardinality_and_verdict(self, backend):
        model, cardinality = _repair_model()
        base, base_stats = solve_with_stats(model, backend=backend, certify=True)
        assert base_stats.certified is True
        for seed in derived_seeds(3):
            permuted = _permute_variables(model, seed)
            solution, stats = solve_with_stats(
                permuted, backend=backend, certify=True
            )
            assert stats.certified is True, describe_seed(seed)
            assert solution.objective == pytest.approx(
                base.objective, abs=1e-6
            ), describe_seed(seed)
            assert solution.objective == pytest.approx(
                float(cardinality), abs=1e-6
            ), describe_seed(seed)


# ---------------------------------------------------------------------------
# Seeded numeric-noise chaos
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["bnb", "bnb-simplex", "scipy"])
class TestNumericNoiseChaos:
    def test_noisy_models_still_end_certified(self, backend):
        model, cardinality = _repair_model()
        for seed in derived_seeds(3):
            noisy, injections = inject_numeric_noise(model, seed=seed, index=0)
            assert injections, describe_seed(seed)
            solution, stats = solve_with_stats(
                noisy, backend=backend, certify=True
            )
            assert stats.certified is True, describe_seed(seed)
            assert solution.objective == pytest.approx(
                float(cardinality), abs=1e-6
            ), describe_seed(seed)

    def test_noise_is_deterministic_by_seed(self, backend):
        model, _ = _repair_model()
        seed = derived_seeds(1)[0]
        _, first = inject_numeric_noise(model, seed=seed, index=4)
        _, second = inject_numeric_noise(model, seed=seed, index=4)
        assert first == second
        _, other = inject_numeric_noise(model, seed=seed + 1, index=4)
        assert [i.kind for i in other] == [i.kind for i in first]


def test_noise_leaves_original_model_untouched():
    model = small_milp()
    before = [
        (dict(c.expr.coefficients), c.rhs) for c in model.constraints
    ]
    inject_numeric_noise(model, seed=1, index=0)
    after = [
        (dict(c.expr.coefficients), c.rhs) for c in model.constraints
    ]
    assert before == after


# ---------------------------------------------------------------------------
# The governor and its ladder
# ---------------------------------------------------------------------------


class TestNumericsGovernor:
    def test_default_pricing_skips_the_dantzig_rung(self):
        # The default pricing is Dantzig; its one pricing rung is Bland.
        governor = NumericsGovernor("bnb-simplex", {})
        assert governor.ladder() == [
            "as-requested", "pricing:bland", "cuts:off", "backend:scipy",
        ]

    def test_bland_request_skips_the_pricing_rung(self):
        # Bland is the last pricing rung; a request that already uses it
        # steps straight to the cuts.
        governor = NumericsGovernor("bnb-simplex", {"pricing": "bland"})
        assert governor.ladder() == [
            "as-requested", "cuts:off", "backend:scipy",
        ]

    def test_bnb_ladder_has_no_pricing_rungs(self):
        governor = NumericsGovernor("bnb", {})
        assert governor.ladder() == [
            "as-requested", "cuts:off", "backend:scipy",
        ]

    def test_scipy_is_its_own_last_resort(self):
        assert NumericsGovernor("scipy", {}).ladder() == ["as-requested"]

    def test_already_degraded_options_collapse_rungs(self):
        governor = NumericsGovernor("bnb", {"cuts": False})
        assert governor.ladder() == ["as-requested", "backend:scipy"]

    def test_scipy_rung_strips_bnb_only_options(self):
        governor = NumericsGovernor(
            "bnb", {"max_nodes": 50, "time_limit": 9.0, "presolve": False}
        )
        final = list(governor.steps())[-1]
        name, backend, options = final
        assert (name, backend) == ("backend:scipy", "scipy")
        assert options == {"time_limit": 9.0}


def _corrupt_backend(model: MILPModel, **options) -> Solution:
    """A backend whose answers are always wrong (violates a row)."""
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=0.0,
        values={variable.name: -50.0 for variable in model.variables},
        stats={},
    )


class TestDegradationLadder:
    def test_corrupt_backend_degrades_to_scipy(self, monkeypatch):
        monkeypatch.setitem(solver._BACKENDS, "bnb", _corrupt_backend)
        model = small_milp()
        solution, stats = solve_with_stats(model, backend="bnb", certify=True)
        assert stats.certified is True
        assert stats.degraded is True
        assert stats.ladder_steps == [
            "as-requested", "cuts:off", "backend:scipy",
        ]
        assert stats.certification_failures == 2
        assert stats.backend == "scipy"
        assert solution.objective == pytest.approx(1.0)

    def test_exhausted_ladder_raises_typed_error(self, monkeypatch):
        monkeypatch.setitem(solver._BACKENDS, "bnb", _corrupt_backend)
        monkeypatch.setitem(solver._BACKENDS, "scipy", _corrupt_backend)
        model = small_milp()
        with pytest.raises(NumericInstabilityError) as excinfo:
            solve_with_stats(model, backend="bnb", certify=True)
        assert classify_failure(excinfo.value) == "uncertified"
        assert excinfo.value.details["ladder"]
        assert all(
            rung["certified"] is False
            for rung in excinfo.value.details["ladder"]
        )

    def test_without_certify_corrupt_answer_escapes(self, monkeypatch):
        """The control: certify=False is exactly the old behaviour."""
        monkeypatch.setitem(solver._BACKENDS, "bnb", _corrupt_backend)
        model = small_milp()
        solution, stats = solve_with_stats(model, backend="bnb", certify=False)
        assert solution.values["x"] == -50.0  # the lie goes unchallenged
        assert stats.certified is None


def _corrupt_after_first_call(monkeypatch, names):
    """Backends *names* answer the first solve honestly, then lie.

    The first solve is the repair CQA / enumeration start from; every
    later solve -- the range bounds, the no-good-cut re-solves -- gets
    :func:`_corrupt_backend`'s violating answer.
    """
    calls = []
    for name in names:
        real = solver._BACKENDS[name]

        def backend(model, _real=real, **options):
            calls.append(model)
            if len(calls) == 1:
                return _real(model, **options)
            return _corrupt_backend(model, **options)

        monkeypatch.setitem(solver._BACKENDS, name, backend)


class TestUserVisibleAnswersAreCertified:
    """CQA ranges, enumerated and relaxed repairs go through the
    certified entry."""

    @staticmethod
    def _cqa(certify=True):
        from repro.constraints.parser import parse_constraints
        from repro.datasets import paper_acquired_instance
        from repro.datasets.cashbudget import CASH_BUDGET_CONSTRAINT_DSL
        from repro.repair import RepairEngine, consistent_aggregate_answer

        functions, _ = parse_constraints(CASH_BUDGET_CONSTRAINT_DSL)
        engine = RepairEngine(
            paper_acquired_instance(),
            cash_budget_constraints(),
            backend="bnb",
            certify=certify,
        )
        answer = consistent_aggregate_answer(
            engine, functions["chi2"], [2003, "total cash receipts"]
        )
        return engine, answer

    @staticmethod
    def _enumerate(certify=True):
        from repro.datasets import paper_acquired_instance
        from repro.repair import RepairEngine, enumerate_card_minimal_repairs

        engine = RepairEngine(
            paper_acquired_instance(),
            cash_budget_constraints(),
            backend="bnb",
            certify=certify,
        )
        return engine, enumerate_card_minimal_repairs(engine, limit=5)

    def test_cqa_range_rejects_a_corrupt_answer(self, monkeypatch):
        _corrupt_after_first_call(monkeypatch, ["bnb"])
        engine, answer = self._cqa()
        assert (answer.glb, answer.lub) == (pytest.approx(220.0),) * 2
        bound_stats = engine.solve_stats[1:]
        assert len(bound_stats) == 2
        assert all(s.certified and s.degraded for s in bound_stats)
        assert all(s.backend == "scipy" for s in bound_stats)

    def test_cqa_range_without_certify_would_return_the_lie(self, monkeypatch):
        _corrupt_after_first_call(monkeypatch, ["bnb"])
        _, answer = self._cqa(certify=False)
        assert answer.glb == pytest.approx(0.0)  # the planted objective

    def test_cqa_range_raises_when_every_rung_lies(self, monkeypatch):
        _corrupt_after_first_call(monkeypatch, ["bnb", "scipy"])
        with pytest.raises(NumericInstabilityError):
            self._cqa()

    def test_enumerated_repairs_reject_a_corrupt_answer(self, monkeypatch):
        _corrupt_after_first_call(monkeypatch, ["bnb"])
        engine, repairs = self._enumerate()
        # Example 8: the repair is unique; the lie (a "second" repair)
        # never comes back.
        assert len(repairs) == 1
        assert repairs[0].updates[0].new_value == 220
        [cut_stats] = engine.solve_stats[1:]
        assert cut_stats.certified and cut_stats.degraded
        assert cut_stats.backend == "scipy"

    def test_enumeration_raises_when_every_rung_lies(self, monkeypatch):
        _corrupt_after_first_call(monkeypatch, ["bnb", "scipy"])
        with pytest.raises(NumericInstabilityError):
            self._enumerate()

    def test_relaxed_repair_rejects_a_corrupt_answer(self, monkeypatch):
        from repro.faultinject import inject_contradiction

        database = paper_ground_truth()
        constraints = cash_budget_constraints()
        pins = inject_contradiction(database, constraints, seed=23).pins

        def relax():
            # No escalation: the first solve is the INFEASIBLE verdict,
            # every later one a relax phase.
            engine = RepairEngine(
                database, constraints, backend="bnb",
                on_infeasible="relax", max_escalations=0,
            )
            return engine, engine.find_card_minimal_repair(pins=pins)

        _, honest = relax()
        _corrupt_after_first_call(monkeypatch, ["bnb"])
        engine, outcome = relax()
        phases = engine.solve_stats[1:]
        assert [s.phase for s in phases] == [
            "relax-count", "relax-magnitude", "relax-repair",
        ]
        assert all(s.certified and s.degraded for s in phases)
        assert all(s.backend == "scipy" for s in phases)
        assert outcome.relaxed and outcome.certified is None
        assert str(outcome.repair) == str(honest.repair)
        assert outcome.violations.as_dict() == honest.violations.as_dict()


# ---------------------------------------------------------------------------
# Cache hygiene
# ---------------------------------------------------------------------------


class TestCacheHygiene:
    def test_degraded_result_is_never_cached(self, monkeypatch):
        monkeypatch.setitem(solver._BACKENDS, "bnb", _corrupt_backend)
        cache = SolveCache()
        model = small_milp()
        _, stats = solve_with_stats(model, backend="bnb", cache=cache, certify=True)
        assert stats.degraded is True
        assert len(cache) == 0

    def test_pristine_result_is_cached_and_recertified_on_hit(self):
        cache = SolveCache()
        model = small_milp()
        _, first = solve_with_stats(model, backend="bnb", cache=cache, certify=True)
        assert first.cache_hit is False
        assert len(cache) == 1
        _, second = solve_with_stats(model, backend="bnb", cache=cache, certify=True)
        assert second.cache_hit is True
        assert second.certified is True

    def test_poisoned_cache_hit_is_resolved_fresh(self):
        cache = SolveCache()
        model = small_milp()
        key = SolveCache.key_for(model, "bnb", {}, None)
        cache.put(key, _corrupt_backend(model))
        solution, stats = solve_with_stats(
            model, backend="bnb", cache=cache, certify=True
        )
        assert stats.cache_hit is False
        assert stats.certified is True
        assert solution.values["x"] != -50.0
        # and the fresh, certified answer replaced the poison
        assert certify_solution(model, cache.get(key)).certified is True


# ---------------------------------------------------------------------------
# Checkpoint hygiene and round-trip
# ---------------------------------------------------------------------------


class TestCheckpointCertification:
    def test_certified_flag_round_trips_through_journal_record(self):
        result = BatchItemResult(
            index=0, name="doc0", status="repaired", certified=True
        )
        record = result_to_record(result, "f" * 64)
        assert record["certified"] is True
        back = record_to_result(json.loads(json.dumps(record)))
        assert back.certified is True
        assert back.resumed is True

    def test_legacy_record_without_certified_reads_as_none(self):
        result = BatchItemResult(index=0, name="doc0", status="repaired")
        record = result_to_record(result, "f" * 64)
        del record["certified"]
        assert record_to_result(record).certified is None

    def test_uncertified_results_are_never_journaled(self, tmp_path, monkeypatch):
        database, constraints = corrupted_paper_task()
        tasks = [
            RepairTask(database=database, constraints=constraints, name=f"doc{i}")
            for i in range(3)
        ]
        from repro.repair import batch as batch_module

        real_execute = batch_module.execute_task

        def poisoned_execute(task, index, **kwargs):
            result = real_execute(task, index, **kwargs)
            if index == 1:
                result.certified = False
                result.status = "uncertified"
            return result

        monkeypatch.setattr(batch_module, "execute_task", poisoned_execute)
        checkpoint = tmp_path / "journal.jsonl"
        report = repair_batch(tasks, checkpoint=str(checkpoint), certify=True)
        assert report.n_uncertified == 1
        journaled = [
            json.loads(line)
            for line in checkpoint.read_text().splitlines()
            if json.loads(line).get("kind") == "result"
        ]
        assert sorted(record["index"] for record in journaled) == [0, 2]
        assert all(record["certified"] is True for record in journaled)

        # The resume replays only the certified neighbours and
        # re-derives (now un-poisoned) task 1 from scratch.
        monkeypatch.setattr(batch_module, "execute_task", real_execute)
        resumed = repair_batch(tasks, checkpoint=str(checkpoint), certify=True)
        assert resumed.n_resumed == 2
        assert [r.certified for r in resumed.results] == [True, True, True]
        assert resumed.n_uncertified == 0

    def test_batch_report_counts_certified_tasks(self):
        database, constraints = corrupted_paper_task()
        tasks = [
            RepairTask(database=database, constraints=constraints, name=f"doc{i}")
            for i in range(2)
        ]
        report = repair_batch(tasks, certify=True)
        assert report.n_certified == 2
        assert report.aggregate()["certified"] == 2.0
        assert "2 certified" in report.summary()
        off = repair_batch(tasks, certify=False)
        assert off.n_certified == 0
        assert all(r.certified is None for r in off.results)


# ---------------------------------------------------------------------------
# Exact cut-witness replay
# ---------------------------------------------------------------------------


class TestCutWitnessRejection:
    def test_cut_excluding_integer_witness_is_detected(self):
        # x1 + x2 <= 1 excludes the integer point (1, 1).
        assert cut_excludes_point(((0, 1.0), (1, 1.0)), 1.0, [1.0, 1.0])
        assert not cut_excludes_point(((0, 1.0), (1, 1.0)), 2.0, [1.0, 1.0])

    def test_tolerance_band_does_not_false_positive(self):
        # Violation far below the scale-relative tolerance: accepted.
        assert not cut_excludes_point(((0, 1.0),), 1.0 - 1e-9, [1.0])

    def test_cut_rejected_by_witness(self):
        bad = Cut(coefficients=((0, 1.0), (1, 1.0)), rhs=1.0, family="gomory")
        good = Cut(coefficients=((0, 1.0), (1, 1.0)), rhs=2.0, family="gomory")
        witnesses = [[1.0, 1.0]]
        assert cut_rejected_by_witness(bad, witnesses)
        assert not cut_rejected_by_witness(good, witnesses)
        assert not cut_rejected_by_witness(bad, None)
        assert not cut_rejected_by_witness(bad, [])
