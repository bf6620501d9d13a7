"""Small LPs written as dense literals, solved by the revised simplex.

Unit tests state their LPs as short dense matrices; :func:`lp_arrays`
converts them to the CSR form every solver pass consumes and
:func:`solve_lp_from_dense` cold-solves them with
:func:`repro.milp.revised.solve_lp_sparse`.  Omitted bounds default to
free variables, omitted row blocks to empty ones.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.milp.revised import solve_lp_sparse
from repro.milp.simplex import LPResult
from repro.milp.sparse import CSRMatrix, SparseArrays


def lp_arrays(
    costs: Sequence[float],
    a_ub: Optional[Sequence[Sequence[float]]] = None,
    b_ub: Optional[Sequence[float]] = None,
    a_eq: Optional[Sequence[Sequence[float]]] = None,
    b_eq: Optional[Sequence[float]] = None,
    lower: Optional[Sequence[float]] = None,
    upper: Optional[Sequence[float]] = None,
) -> SparseArrays:
    c = np.asarray(costs, dtype=float)
    n = c.shape[0]

    def block(matrix, rhs):
        if matrix is None:
            return CSRMatrix.empty(n), np.zeros(0)
        return CSRMatrix.from_dense(np.asarray(matrix, dtype=float)), np.asarray(
            rhs, dtype=float
        )

    a_ub_csr, b_ub_arr = block(a_ub, b_ub)
    a_eq_csr, b_eq_arr = block(a_eq, b_eq)
    return SparseArrays(
        costs=c,
        a_ub=a_ub_csr,
        b_ub=b_ub_arr,
        a_eq=a_eq_csr,
        b_eq=b_eq_arr,
        lower=np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float),
        upper=np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float),
        integral=[],
        objective_constant=0.0,
    )


def solve_lp_from_dense(
    costs: Sequence[float],
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    lower=None,
    upper=None,
    **options,
) -> LPResult:
    """Cold-solve the LP with the revised simplex (*options* pass through)."""
    arrays = lp_arrays(costs, a_ub, b_ub, a_eq, b_eq, lower, upper)
    return solve_lp_sparse(arrays, **options)
