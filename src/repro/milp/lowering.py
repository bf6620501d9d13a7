"""Lowering a :class:`~repro.milp.model.MILPModel` to CSR arrays.

The branch-and-bound search, the presolve pass, the cut loop and the
IIS probes all work on the same representation
(:class:`~repro.milp.sparse.SparseArrays`)::

    min  costs . x  (+ objective_constant)
    s.t. a_ub x <= b_ub
         a_eq x  = b_eq
         lower <= x <= upper
         x_j integral  for j in integral

``>=`` rows are negated into ``<=`` rows during lowering, so consumers
only ever see the two row families above.  The arrays are lowered
*once* per solve and shared by every node of the search tree; nodes
describe themselves as bound deltas against these shared arrays (see
:mod:`repro.milp.branch_and_bound`).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.milp.model import MILPModel, Sense
from repro.milp.sparse import CSRMatrix, SparseArrays


def lower_model_sparse(model: MILPModel) -> SparseArrays:
    """Lower *model* to CSR blocks without materialising dense rows.

    Constraint order is preserved within each block and ``>=`` rows
    are negated into ``<=`` rows; it never allocates an ``(m, n)``
    array.
    """
    n = model.n_variables
    costs = np.zeros(n)
    for index, coefficient in model.objective.coefficients.items():
        costs[index] = coefficient
    ub_rows: List[Dict[int, float]] = []
    ub_rhs: List[float] = []
    eq_rows: List[Dict[int, float]] = []
    eq_rhs: List[float] = []
    for constraint in model.constraints:
        coefficients = constraint.expr.coefficients
        if constraint.sense is Sense.LE:
            ub_rows.append(dict(coefficients))
            ub_rhs.append(constraint.rhs)
        elif constraint.sense is Sense.GE:
            ub_rows.append({j: -c for j, c in coefficients.items()})
            ub_rhs.append(-constraint.rhs)
        else:
            eq_rows.append(dict(coefficients))
            eq_rhs.append(constraint.rhs)
    return SparseArrays(
        costs=costs,
        a_ub=CSRMatrix.from_row_dicts(ub_rows, n),
        b_ub=np.asarray(ub_rhs, dtype=float),
        a_eq=CSRMatrix.from_row_dicts(eq_rows, n),
        b_eq=np.asarray(eq_rhs, dtype=float),
        lower=np.array([v.lower for v in model.variables]),
        upper=np.array([v.upper for v in model.variables]),
        integral=[v.index for v in model.variables if v.var_type.is_integral],
        objective_constant=model.objective.constant,
    )
