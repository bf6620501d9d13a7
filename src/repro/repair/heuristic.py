"""A greedy primal repair heuristic over the ground system.

The exact backends solve ``S*(AC)`` to optimality, which is NP-hard in
general (Theorem 2).  This module trades the optimality certificate for
speed: starting from the *current* database values it repeatedly picks
the most-violated ground constraint and moves one of its cells just far
enough to make the constraint tight, snapping to integers where the
schema demands and clamping into the variable's bound box.  Moves are
scored lexicographically -- total violation first, then cardinality,
then total value change -- and the loop insists on strict improvement,
so it terminates.

The result is **verified**: the assembled full assignment (z, y, and
the delta/t variables) must pass ``model.check_feasible`` or the
heuristic reports failure.  Two uses:

- as an **incumbent seed** for the branch-and-bound backends: a
  feasible point with objective ``k`` lets the search prune every node
  whose bound reaches ``k`` from the very first node;
- as the cascade's T3 tier (:mod:`repro.repair.cascade`), whose greedy
  repair is accepted only against a certified lower bound.

Unlike the evaluation baseline
:func:`repro.repair.baselines.greedy_local_repair` (which walks the
*database* and ignores the MILP machinery), this heuristic works on the
:class:`~repro.repair.translation.MILPTranslation`: it honours operator
pins, schema bounds, the Big-M box and the selected objective, and its
output is a complete MILP variable assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.constraints.constraint import Relop
from repro.milp.deadline import Deadline
from repro.repair.translation import MILPTranslation, RepairObjective

#: Values within this of the original count as "unchanged".
CHANGE_TOL = 1e-6

#: A move must improve the score by more than this to be accepted.
IMPROVE_TOL = 1e-9


@dataclass
class HeuristicResult:
    """A verified (not necessarily minimal) repair point.

    ``assignment`` is the full MILP variable vector (z's, y's, then the
    delta or t block) in the model's index order, ready to be used as a
    branch-and-bound incumbent.
    """

    assignment: np.ndarray
    z_values: List[float]
    objective: float
    changes: int
    iterations: int


def _score(
    translation: MILPTranslation, z: List[float], index_of: Dict
) -> Tuple[float, int, float]:
    """(total violation, cells changed, total |change|) -- lexicographic."""
    violation = 0.0
    for ground in translation.grounds:
        value = ground.constant + sum(
            coefficient * z[index_of[cell]]
            for cell, coefficient in ground.coefficients.items()
        )
        if ground.relop == Relop.LE:
            violation += max(0.0, value - ground.rhs)
        elif ground.relop == Relop.GE:
            violation += max(0.0, ground.rhs - value)
        else:
            violation += abs(value - ground.rhs)
    changes = 0
    residual = 0.0
    for i, original in enumerate(translation.values):
        delta = abs(z[i] - original)
        if delta > CHANGE_TOL:
            changes += 1
            residual += delta
    return (violation, changes, residual)


def greedy_repair(
    translation: MILPTranslation,
    *,
    max_iterations: int = 500,
    deadline: Optional[Deadline] = None,
) -> Optional[HeuristicResult]:
    """Greedily repair the z vector; ``None`` when the heuristic fails.

    Failure does *not* mean the instance is unrepairable -- only that
    single-cell tightening moves could not reach feasibility (e.g.
    equality grounds over integer cells with fractional tight points).

    ``deadline`` (a :class:`~repro.milp.deadline.Deadline`) is checked
    once per improvement round; on expiry the heuristic gives up and
    returns ``None`` -- it never raises, because a missing heuristic
    seed only costs performance, not correctness.
    """
    n = translation.n
    cells = translation.cells
    index_of = {cell: i for i, cell in enumerate(cells)}
    z_variables = translation.model.variables[:n]

    z = [float(v) for v in translation.values]
    frozen = [False] * n
    for cell, pinned in translation.pins.items():
        i = index_of[cell]
        z[i] = float(pinned)
        frozen[i] = True

    current = _score(translation, z, index_of)
    iterations = 0
    while current[0] > CHANGE_TOL and iterations < max_iterations:
        if deadline is not None and deadline.expired:
            return None
        iterations += 1
        # The most-violated ground constraint drives this round.
        worst = None
        worst_amount = CHANGE_TOL
        for ground in translation.grounds:
            value = ground.constant + sum(
                coefficient * z[index_of[cell]]
                for cell, coefficient in ground.coefficients.items()
            )
            if ground.relop == Relop.LE:
                amount = max(0.0, value - ground.rhs)
            elif ground.relop == Relop.GE:
                amount = max(0.0, ground.rhs - value)
            else:
                amount = abs(value - ground.rhs)
            if amount > worst_amount:
                worst = ground
                worst_amount = amount
        if worst is None:
            break

        best_move: Optional[Tuple[int, float]] = None
        best_score = current
        for cell, coefficient in worst.coefficients.items():
            i = index_of[cell]
            if frozen[i] or abs(coefficient) < 1e-12:
                continue
            rest = worst.constant + sum(
                other_coefficient * z[index_of[other_cell]]
                for other_cell, other_coefficient in worst.coefficients.items()
                if other_cell != cell
            )
            tight = (worst.rhs - rest) / coefficient
            candidates = [tight]
            if translation.integer_cells[i]:
                candidates = [math.floor(tight), math.ceil(tight)]
            # Also consider reverting to the original value: it may
            # satisfy the row while undoing an earlier change.
            candidates.append(translation.values[i])
            for candidate in candidates:
                value = min(
                    max(float(candidate), z_variables[i].lower),
                    z_variables[i].upper,
                )
                if translation.integer_cells[i]:
                    value = float(round(value))
                if value == z[i]:
                    continue
                previous = z[i]
                z[i] = value
                score = _score(translation, z, index_of)
                z[i] = previous
                if score < best_score:
                    best_score = score
                    best_move = (i, value)
        if best_move is None or current[0] - best_score[0] <= IMPROVE_TOL:
            return None  # stalled: no single-cell move reduces violation
        z[best_move[0]] = best_move[1]
        current = best_score

    if current[0] > CHANGE_TOL:
        return None

    assignment = _assemble(translation, z)
    if not translation.model.check_feasible(assignment):
        return None
    objective = translation.model.evaluate_objective(assignment)
    changes = sum(
        1
        for i, original in enumerate(translation.values)
        if abs(z[i] - original) > CHANGE_TOL
    )
    return HeuristicResult(
        assignment=assignment,
        z_values=list(z),
        objective=float(objective),
        changes=changes,
        iterations=iterations,
    )


def _assemble(translation: MILPTranslation, z: List[float]) -> np.ndarray:
    """Lift z values to the full MILP vector (z, y, then delta or t)."""
    n = translation.n
    x = np.zeros(translation.model.n_variables)
    for i in range(n):
        y = z[i] - translation.values[i]
        x[i] = z[i]
        x[n + i] = y
        if translation.objective is RepairObjective.TOTAL_CHANGE:
            x[2 * n + i] = abs(y)
        else:
            x[2 * n + i] = 1.0 if abs(y) > CHANGE_TOL else 0.0
    return x
