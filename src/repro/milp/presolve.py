"""MILP presolve: shrink the lowered CSR arrays before any LP is built.

The grounded repair instances ``S*(AC)`` carry a lot of exploitable
structure: ``y_i = z_i - v_i`` equality rows give every difference
variable finite implied bounds, the Big-M link rows
``+/-y_i - M d_i <= 0`` have coefficients wildly larger than the data
(tightenable once ``y``'s real range is known), and violated ground
equalities force touch-indicators to 1 outright.  This module applies
the classic reductions in a fixpoint loop:

- **bound propagation** from row activity bounds (and its special case,
  singleton rows, which become bounds and disappear);
- **integral bound rounding** (``ceil``/``floor`` of fractional bounds
  on integer variables);
- **fixing** of variables whose bounds have closed (including binaries
  forced by row activities), with substitution into every row;
- **empty and redundant row elimination** (a ``<=`` row whose maximum
  activity cannot exceed the RHS proves nothing);
- **big-M coefficient tightening** on binary columns: in a row
  ``a x_rest + a_j d <= b`` with ``a_j < 0`` and maximum rest-activity
  ``U``, any ``a_j < b - U <= 0`` can be raised to ``b - U`` without
  cutting a feasible point -- this is exactly what shrinks DART's link
  rows from the Big-M scale to the data scale;
- **cost-based fixing** of variables no surviving row mentions.

Everything here is sound for the *mixed-integer* problem: continuous
relaxation points may be cut (that is the point -- tighter LP bounds),
integer-feasible points never are.

:class:`PresolveResult` carries the reduced arrays plus the postsolve
map (kept columns + fixed values) to translate solutions back, and
:meth:`PresolveResult.reduce_point` projects a full-space point (e.g.
a heuristic incumbent) into the reduced space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.milp.sparse import CSRMatrix, SparseArrays

INF = math.inf

#: Feasibility tolerance (matches the simplex FEAS_TOL scale).
FEAS_TOL = 1e-7
#: Minimum improvement for a bound/coefficient change to count as
#: progress -- avoids fixpoint loops on epsilon-sized improvements.
TIGHTEN_TOL = 1e-6
#: Upper bound on fixpoint sweeps; DART instances settle in 2-4.
MAX_PASSES = 12


@dataclass
class PresolveStats:
    """Reduction counters, folded into ``Solution.stats`` downstream."""

    rows_dropped: int = 0
    vars_fixed: int = 0
    bounds_tightened: int = 0
    coeffs_tightened: int = 0
    passes: int = 0

    def as_solution_stats(self) -> Dict[str, float]:
        return {
            "presolve_rows_dropped": float(self.rows_dropped),
            "presolve_vars_fixed": float(self.vars_fixed),
            "presolve_bounds_tightened": float(self.bounds_tightened),
            "presolve_coeffs_tightened": float(self.coeffs_tightened),
        }


@dataclass
class PresolveResult:
    """Outcome of :func:`presolve_arrays` plus the postsolve map.

    ``status`` is one of:

    - ``"reduced"`` -- ``arrays`` holds the (possibly smaller) problem
      over the ``kept`` original columns;
    - ``"solved"`` -- every variable was fixed; ``restore()`` yields
      the unique surviving point (callers should still verify it);
    - ``"infeasible"`` -- a contradiction was proven; no arrays.
      ``infeasible_row`` then names the lowered row whose reduction
      raised the contradiction, as ``("ub" | "eq", row index)`` into
      the *original* lowered arrays, when a specific row is to blame
      (bound-box contradictions have no single row and leave it
      ``None``).  IIS extraction uses it as an ordering hint.
    """

    status: str
    n_original: int
    kept: List[int] = field(default_factory=list)
    fixed: Dict[int, float] = field(default_factory=dict)
    stats: PresolveStats = field(default_factory=PresolveStats)
    arrays: Optional[SparseArrays] = None
    infeasible_row: Optional[Tuple[str, int]] = None

    def restore(self, x_reduced: Optional[Sequence[float]] = None) -> np.ndarray:
        """Lift a reduced-space point back to the original variables."""
        x = np.zeros(self.n_original)
        for index, value in self.fixed.items():
            x[index] = value
        if x_reduced is not None:
            for position, index in enumerate(self.kept):
                x[index] = float(x_reduced[position])
        return x

    def reduce_point(
        self, x_full: Sequence[float], tolerance: float = 1e-6
    ) -> Optional[np.ndarray]:
        """Project a full-space point into the reduced space.

        Returns ``None`` when the point contradicts a fixing (it then
        cannot seed the reduced search).
        """
        for index, value in self.fixed.items():
            if abs(float(x_full[index]) - value) > tolerance:
                return None
        return np.array([float(x_full[index]) for index in self.kept])


class _Infeasible(Exception):
    """Internal signal: a reduction proved the instance infeasible.

    ``row`` carries the implicated lowered row (``("ub"|"eq", index)``)
    when the contradiction surfaced while scanning a specific row.
    """

    def __init__(self, row: Optional[Tuple[str, int]] = None) -> None:
        super().__init__()
        self.row = row


class _RowBlock:
    """One constraint block (``<=`` or ``=``) of the problem under reduction.

    The CSR structure of the lowered block is kept as-is; reductions
    only rewrite values.  A coefficient driven to zero (a fixed
    column, a big-M coefficient tightened all the way) drops out of
    every later support scan, so no row is rebuilt mid-fixpoint.  A
    column-major index of storage positions makes substituting a fixed
    variable cost its column's nonzeros, not a pass over every row.
    """

    def __init__(self, matrix: CSRMatrix, rhs: np.ndarray) -> None:
        n_rows, n_columns = matrix.shape
        self.indptr = matrix.indptr
        self.indices = matrix.indices
        self.row_ids = matrix.row_ids
        self.data = matrix.data.astype(float).copy()
        self.rhs = np.asarray(rhs, dtype=float).copy()
        self.alive = np.ones(n_rows, dtype=bool)
        self._column_positions = np.argsort(self.indices, kind="stable")
        self._column_ptr = np.zeros(n_columns + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.indices, minlength=n_columns),
            out=self._column_ptr[1:],
        )

    def support(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(columns, storage positions)`` of row *i*'s nonzeros."""
        start, stop = self.indptr[i], self.indptr[i + 1]
        nonzero = np.flatnonzero(self.data[start:stop] != 0.0)
        return self.indices[start:stop][nonzero], start + nonzero

    def _positions(self, j: int) -> np.ndarray:
        return self._column_positions[self._column_ptr[j]:self._column_ptr[j + 1]]

    def substitute(self, j: int, value: float) -> None:
        """Fold ``x_j = value`` into the live right-hand sides; zero column *j*."""
        positions = self._positions(j)
        if value != 0.0:
            rows = self.row_ids[positions]
            coefficients = self.data[positions]
            live = self.alive[rows] & (coefficients != 0.0)
            if live.any():
                self.rhs[rows[live]] -= coefficients[live] * value
        self.data[positions] = 0.0

    def mentions(self, j: int) -> bool:
        """Does any live row still carry a nonzero in column *j*?"""
        positions = self._positions(j)
        return bool(
            np.any(self.alive[self.row_ids[positions]] & (self.data[positions] != 0.0))
        )

    def reduced(self, column_map: np.ndarray, n_kept: int) -> Tuple[CSRMatrix, np.ndarray]:
        """The live rows over the kept columns (``column_map``: old -> new)."""
        live_rows = np.flatnonzero(self.alive)
        if live_rows.size == 0:
            return CSRMatrix.empty(n_kept), np.zeros(0)
        entries = self.alive[self.row_ids] & (self.data != 0.0)
        new_row = np.cumsum(self.alive) - 1
        indptr = np.zeros(live_rows.size + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(new_row[self.row_ids[entries]], minlength=live_rows.size),
            out=indptr[1:],
        )
        matrix = CSRMatrix(
            (live_rows.size, n_kept),
            indptr,
            column_map[self.indices[entries]],
            self.data[entries],
        )
        return matrix, self.rhs[live_rows]


def presolve_arrays(arrays: SparseArrays) -> PresolveResult:
    """Run the presolve fixpoint on *arrays* (which is left untouched)."""
    n = arrays.n
    costs = arrays.costs.astype(float).copy()
    ub = _RowBlock(arrays.a_ub, arrays.b_ub)
    eq = _RowBlock(arrays.a_eq, arrays.b_eq)
    lower = arrays.lower.astype(float).copy()
    upper = arrays.upper.astype(float).copy()
    integral = np.zeros(n, dtype=bool)
    integral[list(arrays.integral)] = True

    col_alive = np.ones(n, dtype=bool)
    fixed: Dict[int, float] = {}
    constant = float(arrays.objective_constant)
    stats = PresolveStats()

    def tol_for(value: float) -> float:
        return FEAS_TOL * (1.0 + abs(value))

    def is_binary(j: int) -> bool:
        return bool(integral[j]) and lower[j] >= -FEAS_TOL and upper[j] <= 1.0 + FEAS_TOL

    def fix_variable(j: int, value: float) -> None:
        nonlocal constant
        if integral[j]:
            rounded = float(round(value))
            if abs(rounded - value) > tol_for(value):
                raise _Infeasible  # integral variable pinned to a fraction
            value = rounded
        if value < lower[j] - tol_for(value) or value > upper[j] + tol_for(value):
            raise _Infeasible
        constant += costs[j] * value
        ub.substitute(j, value)
        eq.substitute(j, value)
        col_alive[j] = False
        fixed[j] = value
        stats.vars_fixed += 1

    def activity_bounds(
        block: _RowBlock, columns: np.ndarray, positions: np.ndarray
    ) -> Tuple[float, float, Dict[int, float], Dict[int, float]]:
        """Activity range of one row over the current bound box.

        Returns ``(min_act, max_act, mins, maxs)`` where ``mins[j]`` /
        ``maxs[j]`` are the per-column contributions *from the same
        bounds snapshot* as the totals -- propagation must subtract a
        contribution consistent with the total it subtracts from, even
        after an earlier column's bound was tightened mid-row.
        """
        min_act = 0.0
        max_act = 0.0
        mins: Dict[int, float] = {}
        maxs: Dict[int, float] = {}
        for j, p in zip(columns, positions):
            a = float(block.data[p])
            # Plain Python floats: the callers' rest-of-row subtractions
            # may hit inf - inf, which is a quiet nan (caught by their
            # isfinite guards) rather than a numpy RuntimeWarning.
            if a > 0:
                contribution_min = a * float(lower[j])
                contribution_max = a * float(upper[j])
            else:
                contribution_min = a * float(upper[j])
                contribution_max = a * float(lower[j])
            mins[int(j)] = contribution_min
            maxs[int(j)] = contribution_max
            min_act += contribution_min
            max_act += contribution_max
        return min_act, max_act, mins, maxs

    def round_integral_bounds() -> bool:
        changed = False
        for j in np.flatnonzero(col_alive & integral):
            if lower[j] != -INF:
                rounded = float(math.ceil(lower[j] - FEAS_TOL))
                if rounded > lower[j] + TIGHTEN_TOL:
                    stats.bounds_tightened += 1
                    changed = True
                if rounded > lower[j]:
                    lower[j] = rounded
            if upper[j] != INF:
                rounded = float(math.floor(upper[j] + FEAS_TOL))
                if rounded < upper[j] - TIGHTEN_TOL:
                    stats.bounds_tightened += 1
                    changed = True
                if rounded < upper[j]:
                    upper[j] = rounded
        return changed

    def close_bounds() -> bool:
        changed = False
        for j in np.flatnonzero(col_alive):
            if lower[j] > upper[j] + FEAS_TOL:
                raise _Infeasible
            if upper[j] - lower[j] <= FEAS_TOL:
                fix_variable(j, 0.5 * (lower[j] + upper[j]))
                changed = True
        return changed


    def scan_ub_rows() -> bool:
        changed = False
        for i in np.flatnonzero(ub.alive):
            b = float(ub.rhs[i])
            support, positions = ub.support(i)
            if support.size == 0:
                if b < -tol_for(b):
                    raise _Infeasible(("ub", int(i)))
                ub.alive[i] = False
                stats.rows_dropped += 1
                changed = True
                continue
            min_act, max_act, mins, maxs = activity_bounds(ub, support, positions)
            if min_act > b + tol_for(b):
                raise _Infeasible(("ub", int(i)))
            if max_act <= b + tol_for(b):
                # Redundant: satisfied by every point in the bound box.
                ub.alive[i] = False
                stats.rows_dropped += 1
                changed = True
                continue
            if support.size == 1:
                j = int(support[0])
                a = ub.data[positions[0]]
                bound = b / a
                if a > 0:
                    if bound < upper[j] - TIGHTEN_TOL * (1.0 + abs(bound)):
                        upper[j] = bound
                        stats.bounds_tightened += 1
                else:
                    if bound > lower[j] + TIGHTEN_TOL * (1.0 + abs(bound)):
                        lower[j] = bound
                        stats.bounds_tightened += 1
                ub.alive[i] = False
                stats.rows_dropped += 1
                changed = True
                continue
            for j, p in zip(support, positions):
                a = ub.data[p]
                rest_min = min_act - mins[int(j)]
                if not math.isfinite(rest_min):
                    continue
                implied = (b - rest_min) / a
                margin = TIGHTEN_TOL * (1.0 + abs(implied))
                if a > 0:
                    if implied < upper[j] - margin:
                        upper[j] = implied
                        stats.bounds_tightened += 1
                        changed = True
                else:
                    if implied > lower[j] + margin:
                        lower[j] = implied
                        stats.bounds_tightened += 1
                        changed = True
            # Binary-column work: forced values and big-M tightening.
            min_act, max_act, mins, maxs = activity_bounds(ub, support, positions)
            for j, p in zip(support, positions):
                if not is_binary(int(j)):
                    continue
                a = ub.data[p]
                rest_min = min_act - mins[int(j)]
                rest_max = max_act - maxs[int(j)]
                if a > 0 and math.isfinite(rest_min) and rest_min + a > b + tol_for(b):
                    # Setting the binary would overshoot the row: force 0.
                    if upper[j] > FEAS_TOL:
                        upper[j] = 0.0
                        stats.bounds_tightened += 1
                        changed = True
                elif a < 0:
                    if math.isfinite(rest_min) and rest_min > b + tol_for(b):
                        # The row needs the binary's negative term: force 1.
                        if lower[j] < 1.0 - FEAS_TOL:
                            lower[j] = 1.0
                            stats.bounds_tightened += 1
                            changed = True
                    if math.isfinite(rest_max):
                        new_coefficient = b - rest_max
                        margin = TIGHTEN_TOL * (1.0 + abs(a))
                        if a + margin < new_coefficient <= 0.0:
                            # Big-M tightening: with the binary at 1 the
                            # row can never need more slack than b - U.
                            ub.data[p] = new_coefficient
                            stats.coeffs_tightened += 1
                            changed = True
        return changed

    def scan_eq_rows() -> bool:
        changed = False
        for i in np.flatnonzero(eq.alive):
            b = float(eq.rhs[i])
            support, positions = eq.support(i)
            if support.size == 0:
                if abs(b) > tol_for(b):
                    raise _Infeasible(("eq", int(i)))
                eq.alive[i] = False
                stats.rows_dropped += 1
                changed = True
                continue
            min_act, max_act, mins, maxs = activity_bounds(eq, support, positions)
            if min_act > b + tol_for(b) or max_act < b - tol_for(b):
                raise _Infeasible(("eq", int(i)))
            if support.size == 1:
                j = int(support[0])
                try:
                    fix_variable(j, b / eq.data[positions[0]])
                except _Infeasible as conflict:
                    if conflict.row is None:
                        conflict.row = ("eq", int(i))
                    raise
                eq.alive[i] = False
                stats.rows_dropped += 1
                changed = True
                continue
            for j, p in zip(support, positions):
                a = eq.data[p]
                rest_min = min_act - mins[int(j)]
                rest_max = max_act - maxs[int(j)]
                # a x_j = b - rest  with  rest in [rest_min, rest_max].
                if math.isfinite(rest_min):
                    implied = (b - rest_min) / a
                    margin = TIGHTEN_TOL * (1.0 + abs(implied))
                    if a > 0:
                        if implied < upper[j] - margin:
                            upper[j] = implied
                            stats.bounds_tightened += 1
                            changed = True
                    else:
                        if implied > lower[j] + margin:
                            lower[j] = implied
                            stats.bounds_tightened += 1
                            changed = True
                if math.isfinite(rest_max):
                    implied = (b - rest_max) / a
                    margin = TIGHTEN_TOL * (1.0 + abs(implied))
                    if a > 0:
                        if implied > lower[j] + margin:
                            lower[j] = implied
                            stats.bounds_tightened += 1
                            changed = True
                    else:
                        if implied < upper[j] - margin:
                            upper[j] = implied
                            stats.bounds_tightened += 1
                            changed = True
        return changed

    def fix_unconstrained_columns() -> bool:
        changed = False
        for j in np.flatnonzero(col_alive):
            if ub.mentions(j) or eq.mentions(j):
                continue

            # An unconstrained column sits at whichever bound its cost
            # prefers; integral bounds are rounded inward first (they
            # may have been tightened to a fraction later in the pass).
            def bound_value(side: str) -> float:
                if side == "lower":
                    value = lower[j]
                    if integral[j]:
                        value = float(math.ceil(value - FEAS_TOL))
                else:
                    value = upper[j]
                    if integral[j]:
                        value = float(math.floor(value + FEAS_TOL))
                if value < lower[j] - tol_for(value) or value > upper[j] + tol_for(value):
                    raise _Infeasible  # no integer point between the bounds
                return value

            c = costs[j]
            if c > 0 and lower[j] != -INF:
                fix_variable(j, bound_value("lower"))
                changed = True
            elif c < 0 and upper[j] != INF:
                fix_variable(j, bound_value("upper"))
                changed = True
            elif c == 0:
                if lower[j] != -INF:
                    fix_variable(j, bound_value("lower"))
                elif upper[j] != INF:
                    fix_variable(j, bound_value("upper"))
                else:
                    fix_variable(j, 0.0)
                changed = True
            # c != 0 with the improving direction unbounded: leave the
            # column so the LP reports unboundedness.
        return changed

    try:
        for pass_index in range(MAX_PASSES):
            stats.passes = pass_index + 1
            changed = round_integral_bounds()
            changed |= close_bounds()
            changed |= scan_ub_rows()
            changed |= scan_eq_rows()
            changed |= fix_unconstrained_columns()
            if not changed:
                break

        if not col_alive.any():
            # Fully fixed.  Any row still alive must now be empty;
            # verify its residual right-hand side.
            for i in np.flatnonzero(ub.alive):
                if ub.rhs[i] < -tol_for(ub.rhs[i]):
                    raise _Infeasible(("ub", int(i)))
            for i in np.flatnonzero(eq.alive):
                if abs(eq.rhs[i]) > tol_for(eq.rhs[i]):
                    raise _Infeasible(("eq", int(i)))
            return PresolveResult(
                status="solved", n_original=n, fixed=dict(fixed), stats=stats
            )
    except _Infeasible as conflict:
        return PresolveResult(
            status="infeasible", n_original=n, fixed=dict(fixed), stats=stats,
            infeasible_row=conflict.row,
        )

    kept_array = np.flatnonzero(col_alive)
    kept = [int(j) for j in kept_array]
    column_map = np.full(n, -1, dtype=np.int64)
    column_map[kept_array] = np.arange(kept_array.size)
    a_ub, b_ub = ub.reduced(column_map, len(kept))
    a_eq, b_eq = eq.reduced(column_map, len(kept))
    reduced = SparseArrays(
        costs=costs[kept_array],
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        lower=lower[kept_array],
        upper=upper[kept_array],
        integral=[int(column_map[j]) for j in np.flatnonzero(integral & col_alive)],
        objective_constant=float(constant),
    )
    return PresolveResult(
        status="reduced",
        n_original=n,
        kept=kept,
        fixed=dict(fixed),
        stats=stats,
        arrays=reduced,
    )
