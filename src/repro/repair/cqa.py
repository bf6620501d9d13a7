"""Consistent query answering under the card-minimal semantics.

DART's companion paper ([16] = Flesca, Furfaro, Parisi, *Consistent
Query Answer on Numerical Databases under Aggregate Constraints*,
DBPL 2005 -- the work Section 3.2 builds on) studies not only repairs
but *reliable answers*: the value of an aggregate query is consistent
iff it is the same in **every** card-minimal repair.

This module implements that notion on top of the MILP machinery.  For
an aggregation function ``chi`` and ground arguments, the answer range
over all card-minimal repairs is computed with two further MILPs:

1. solve ``S*(AC)`` for the optimal cardinality ``k*``;
2. minimise (resp. maximise) the linearised query value subject to
   ``S''(AC)`` **and** ``sum(delta_i) = k*``.

If the greatest lower bound equals the least upper bound, the query
has a consistent answer (the paper's glb/lub-style semantics for
aggregates); otherwise only the range is reliable.

On the running example, the corrupted value "total cash receipts 2003"
has the consistent answer 220: the card-minimal repair is unique, so
*every* query is consistent.  When several card-minimal repairs exist
(e.g. a product-price error that any product of the category could
absorb), the range is the honest answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple as PyTuple

from repro.constraints.aggregates import AggregationFunction
from repro.constraints.grounding import Cell
from repro.milp.model import MILPModel, Solution, SolveStatus
from repro.milp.solver import solve_with_stats
from repro.repair.engine import RepairEngine, UnrepairableError
from repro.repair.translation import RepairObjective, TranslationError, translate


@dataclass(frozen=True)
class ConsistentAnswer:
    """The answer range of an aggregate query over card-minimal repairs."""

    glb: float
    lub: float
    #: the cardinality every considered repair has
    cardinality: int
    #: value of the query on the (inconsistent) acquired instance
    acquired_value: float

    @property
    def is_consistent(self) -> bool:
        """True iff the query evaluates identically in every repair."""
        return abs(self.lub - self.glb) <= 1e-9

    @property
    def consistent_value(self) -> Optional[float]:
        """The single reliable value, when one exists."""
        return self.glb if self.is_consistent else None

    def __str__(self) -> str:
        if self.is_consistent:
            return f"consistent answer: {self.glb:g}"
        return f"answer range: [{self.glb:g}, {self.lub:g}]"


def _query_linear_form(
    engine: RepairEngine,
    function: AggregationFunction,
    arguments: Sequence[Any],
) -> PyTuple[Dict[Cell, float], float]:
    """Linearise ``chi(arguments)`` over the measure cells of D.

    Steadiness guarantees the involved-tuple set is repair-invariant,
    so the query value in any repair is this fixed linear form over
    the repaired cell values.
    """
    schema = engine.database.schema
    coefficients: Dict[Cell, float] = {}
    constant = 0.0
    involved = function.involved_tuples(engine.database, list(arguments))
    linear = function.expression.linearize()
    constant += linear.constant * len(involved)
    for row in involved:
        assert row.tuple_id is not None
        for attribute, weight in linear.coefficients:
            if schema.is_measure(function.relation, attribute):
                cell = (function.relation, row.tuple_id, attribute)
                coefficients[cell] = coefficients.get(cell, 0.0) + weight
            else:
                constant += weight * float(row[attribute])
    return coefficients, constant


def consistent_aggregate_answer(
    engine: RepairEngine,
    function: AggregationFunction,
    arguments: Sequence[Any],
    *,
    pins: Optional[Mapping[Cell, float]] = None,
) -> ConsistentAnswer:
    """The glb/lub of ``chi(arguments)`` over all card-minimal repairs.

    Only the card-minimal objective is supported (the semantics is
    defined w.r.t. Definition 5); raises for engines configured with a
    different objective.  Operator ``pins`` restrict the repair space
    exactly as in the validation loop.
    """
    if engine.objective is not RepairObjective.CARDINALITY:
        raise TranslationError(
            "consistent query answering is defined over card-minimal "
            "repairs; the engine must use RepairObjective.CARDINALITY"
        )
    outcome = engine.find_card_minimal_repair(pins=pins)
    cardinality = outcome.cardinality
    translation = outcome.translation
    acquired_value = function.evaluate(engine.database, list(arguments))

    coefficients, constant = _query_linear_form(engine, function, arguments)
    model_template = translation  # reuse cells/index layout

    def optimise(direction: float) -> float:
        # Rebuild S''(AC) fresh (models are single-use) and add the
        # optimal-cardinality equality.
        fresh = translate(
            engine.database,
            engine.constraints,
            pins=pins,
            grounds=engine.ground_system,
            big_m=model_template.big_m,
        )
        model = fresh.model
        deltas = [model.variable(f"d{i + 1}") for i in range(fresh.n)]
        model.add_constraint(
            sum(deltas, start=0) == float(cardinality), name="card*"
        )
        expr = constant
        for cell, weight in coefficients.items():
            if cell in fresh.cells:
                z = model.variable(f"z{fresh.cells.index(cell) + 1}")
                expr = expr + weight * z
            else:
                # The cell is outside every constraint: no repair may
                # change it (changing it could never satisfy anything
                # and would cost a delta), so it contributes its
                # current value.
                expr = expr + weight * float(engine.database.get_value(*cell))
        model.set_objective(direction * expr if not isinstance(expr, float) else 0.0)
        # The certified entry: a range bound is a user-visible answer.
        solution, stats = solve_with_stats(
            model,
            backend=engine.backend,
            cache=engine.solve_cache,
            certify=engine.certify,
        )
        engine.solve_stats.append(stats)
        if solution.status is not SolveStatus.OPTIMAL:
            raise UnrepairableError(
                f"CQA optimisation returned {solution.status.value}"
            )
        if isinstance(expr, float):
            return expr
        assert solution.objective is not None
        return direction * solution.objective

    glb = optimise(+1.0)
    lub = optimise(-1.0)
    return ConsistentAnswer(
        glb=glb,
        lub=lub,
        cardinality=cardinality,
        acquired_value=acquired_value,
    )
