"""Elastic relaxation: the best repair when no repair exists.

When the grounded instance ``S*(AC)`` is infeasible even at the
escalated Big-M -- contradictory aggregate constraints, or operator
pins that no assignment can reconcile -- DART can still return the
*least wrong* answer instead of an error.  Following the soft/elastic
constraint tradition (Franconi & Lopatenko in PAPERS.md), every ground
constraint receives slack variables that let it be violated at a
price, and the price is minimised **lexicographically**:

1. ``relax-count``   -- minimise the number of violated ground
   constraints (a binary ``viol_g`` per ground row, linked to its
   slacks by ``s <= bound * viol_g``);
2. ``relax-magnitude`` -- holding the count, minimise the total
   violation magnitude ``sum(s)``;
3. ``relax-repair``  -- holding both, minimise the original repair
   objective (card-minimality by default).

Operator pins are **never** relaxed: a pin is a human-verified fact
(Section 6.3), so an instance whose pins contradict the variable
bounds stays infeasible and raises
:class:`~repro.diagnostics.InfeasibleSystemError`.  Structural rows
(``y_i`` definitions, Big-M links) are satisfiable for any ``z`` and
are copied unchanged.

Relaxed verdicts are **never cached**: like ``feasible_gap`` results
they are not facts about the original model (the original model is
infeasible -- that verdict *is* cacheable and the engine caches it on
the way here).  All three phases go through
:func:`repro.milp.solver.solve_with_stats` without a
:class:`~repro.milp.cache.SolveCache`, certified when the caller
certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.diagnostics import InfeasibleSystemError, SolveTimeoutError
from repro.constraints.grounding import GroundConstraint
from repro.milp.deadline import Deadline
from repro.milp.model import (
    Constraint,
    LinExpr,
    MILPModel,
    Sense,
    Solution,
    SolveStatus,
    VarType,
)
from repro.milp.solver import DEFAULT_BACKEND, SolveStats, solve_with_stats
from repro.repair.translation import MILPTranslation, _classify_row_name
from repro.repair.updates import Repair

#: Slack below this is numeric noise, not a violation.
VIOLATION_TOL = 1e-6


@dataclass
class ConstraintViolation:
    """One ground constraint the relaxed repair leaves violated."""

    ground: GroundConstraint
    amount: float
    direction: str  # "over" (actual > bound) or "under" (actual < bound)

    def __str__(self) -> str:
        return (
            f"[{self.ground.source}] {self.ground} "
            f"violated {self.direction} by {self.amount:g}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "source": self.ground.source,
            "constraint": str(self.ground),
            "relop": str(self.ground.relop),
            "rhs": self.ground.rhs,
            "direction": self.direction,
            "amount": self.amount,
        }


@dataclass
class RelaxationReport:
    """The structured violation report of a relaxed repair."""

    violations: List[ConstraintViolation] = field(default_factory=list)
    #: How many ground rows carried slacks (the relaxable universe).
    relaxable: int = 0
    stats: List[SolveStats] = field(default_factory=list)

    @property
    def n_violated(self) -> int:
        return len(self.violations)

    @property
    def total_violation(self) -> float:
        return sum(v.amount for v in self.violations)

    def as_dict(self) -> Dict[str, object]:
        return {
            "n_violated": self.n_violated,
            "total_violation": self.total_violation,
            "relaxable": self.relaxable,
            "violations": [v.as_dict() for v in self.violations],
        }

    def describe(self) -> str:
        lines = [
            f"relaxed repair violates {self.n_violated} of "
            f"{self.relaxable} ground constraint(s), total magnitude "
            f"{self.total_violation:g}"
        ]
        for violation in self.violations:
            lines.append(f"  {violation}")
        return "\n".join(lines)


@dataclass
class RelaxationOutcome:
    """A best-effort repair of an infeasible instance."""

    repair: Repair
    objective: float
    solution: Solution
    report: RelaxationReport


def _solve_phase(
    model: MILPModel,
    phase: str,
    backend: str,
    deadline: Deadline,
    report: RelaxationReport,
    certify: bool,
) -> Solution:
    deadline.check(f"relaxation ({phase})")
    options: Dict[str, float] = {}
    remaining = deadline.remaining()
    if remaining is not None:
        options["time_limit"] = remaining
    solution, stats = solve_with_stats(
        model, backend, cache=None, certify=certify, **options
    )
    stats.phase = phase
    report.stats.append(stats)
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleSystemError(
            "elastic relaxation is itself infeasible: the operator pins "
            "conflict with declared bounds, so no assignment exists even "
            "with every ground constraint relaxed",
            phase=phase,
        )
    if not solution.is_usable:
        raise SolveTimeoutError(
            f"relaxation phase {phase!r} produced no usable solution "
            f"({solution.status.value})",
            phase=phase,
        )
    return solution


def relax_infeasible(
    translation: MILPTranslation,
    *,
    backend: str = DEFAULT_BACKEND,
    deadline: Optional[Deadline] = None,
    certify: bool = False,
) -> RelaxationOutcome:
    """Re-solve an infeasible *translation* with elastic ground rows.

    Returns the lexicographically best relaxed repair and its
    violation report.  With ``certify=True`` every phase's answer is
    certified in exact arithmetic, as in
    :func:`~repro.milp.solver.solve_with_stats`.  On a feasible
    instance this legitimately returns an empty report (no slack is
    ever cheaper than some slack), so callers normally reach it only
    after an INFEASIBLE verdict.
    """
    deadline = deadline or Deadline(None)
    base = translation.model
    bound = max(1.0, float(translation.big_m))

    model = MILPModel(name=f"relax({base.name})")
    for variable in base.variables:
        model.add_variable(
            variable.name, variable.var_type, variable.lower, variable.upper
        )

    # (g_index, ground, over-slack name, under-slack name)
    elastic: List[tuple] = []
    viol_indices: List[int] = []
    slack_indices: List[int] = []
    for constraint in base.constraints:
        kind, g_index = _classify_row_name(constraint.name)
        coefficients = dict(constraint.expr.coefficients)
        if kind != "ground" or g_index is None:
            # Pins stay hard; structural rows hold for any z.
            model.add_constraint(
                Constraint(
                    LinExpr(coefficients, constraint.expr.constant),
                    constraint.sense,
                    constraint.rhs,
                    constraint.name,
                )
            )
            continue
        ground = translation.grounds[g_index]
        viol = model.add_variable(f"viol{g_index}", VarType.BINARY)
        viol_indices.append(viol.index)
        over_name = under_name = None
        if constraint.sense in (Sense.LE, Sense.EQ):
            over = model.add_variable(
                f"s_over{g_index}", VarType.REAL, lower=0.0, upper=bound
            )
            over_name = over.name
            slack_indices.append(over.index)
            coefficients[over.index] = coefficients.get(over.index, 0.0) - 1.0
        if constraint.sense in (Sense.GE, Sense.EQ):
            under = model.add_variable(
                f"s_under{g_index}", VarType.REAL, lower=0.0, upper=bound
            )
            under_name = under.name
            slack_indices.append(under.index)
            coefficients[under.index] = coefficients.get(under.index, 0.0) + 1.0
        model.add_constraint(
            Constraint(
                LinExpr(coefficients, constraint.expr.constant),
                constraint.sense,
                constraint.rhs,
                constraint.name,
            )
        )
        for slack_name, tag in ((over_name, "over"), (under_name, "under")):
            if slack_name is None:
                continue
            slack_var = model.variable(slack_name)
            model.add_constraint(
                Constraint(
                    LinExpr({slack_var.index: 1.0, viol.index: -bound}),
                    Sense.LE,
                    0.0,
                    f"elastic{g_index}:{tag}",
                )
            )
        elastic.append((g_index, ground, over_name, under_name))

    report = RelaxationReport(relaxable=len(elastic))
    if not elastic:
        raise InfeasibleSystemError(
            "nothing to relax: the translation has no ground rows",
        )

    # Phase 1: fewest violated ground constraints.
    model.set_objective(LinExpr({index: 1.0 for index in viol_indices}))
    first = _solve_phase(
        model, "relax-count", backend, deadline, report, certify
    )
    count = round(first.objective)
    model.add_constraint(
        Constraint(
            LinExpr({index: 1.0 for index in viol_indices}),
            Sense.LE,
            count + 0.5,
            "lex:count",
        )
    )

    # Phase 2: smallest total violation magnitude at that count.
    model.set_objective(LinExpr({index: 1.0 for index in slack_indices}))
    second = _solve_phase(
        model, "relax-magnitude", backend, deadline, report, certify
    )
    magnitude = float(second.objective)
    model.add_constraint(
        Constraint(
            LinExpr({index: 1.0 for index in slack_indices}),
            Sense.LE,
            magnitude + max(1e-6, 1e-9 * abs(magnitude)),
            "lex:magnitude",
        )
    )

    # Phase 3: the original repair objective, e.g. card-minimality.
    # Base-variable indices are identical in the clone, so the original
    # objective expression is valid as-is.
    model.set_objective(
        LinExpr(dict(base.objective.coefficients), base.objective.constant)
    )
    third = _solve_phase(
        model, "relax-repair", backend, deadline, report, certify
    )

    for g_index, ground, over_name, under_name in elastic:
        s_over = float(third.values.get(over_name, 0.0)) if over_name else 0.0
        s_under = float(third.values.get(under_name, 0.0)) if under_name else 0.0
        net = s_over - s_under
        if abs(net) <= VIOLATION_TOL:
            continue
        report.violations.append(
            ConstraintViolation(
                ground=ground,
                amount=abs(net),
                direction="over" if net > 0 else "under",
            )
        )

    repair = translation.extract_repair(third)
    return RelaxationOutcome(
        repair=repair,
        objective=float(third.objective),
        solution=third,
        report=report,
    )
