"""Unit tests for the from-scratch revised simplex (repro.milp.revised).

Each deterministic case is cross-checked against scipy.linprog in
test_milp_backends.py; here we pin known optima and edge cases.
"""

import numpy as np
import pytest

from tests._lp import solve_lp_from_dense


class TestBasicLPs:
    def test_textbook_maximisation(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
        result = solve_lp_from_dense(
            costs=[-3, -5],
            a_ub=np.array([[1, 0], [0, 2], [3, 2]]),
            b_ub=[4, 12, 18],
            lower=[0, 0],
            upper=[np.inf, np.inf],
        )
        assert result.is_optimal
        assert result.objective == pytest.approx(-36.0)
        assert result.x == pytest.approx([2.0, 6.0])

    def test_equality_constraints(self):
        # min x + y s.t. x + y = 10, x - y = 2
        result = solve_lp_from_dense(
            costs=[1, 1],
            a_eq=np.array([[1, 1], [1, -1]]),
            b_eq=[10, 2],
        )
        assert result.is_optimal
        assert result.x == pytest.approx([6.0, 4.0])

    def test_degenerate_vertices(self):
        # Multiple constraints meet at the optimum; Bland must not cycle.
        result = solve_lp_from_dense(
            costs=[-1, -1],
            a_ub=np.array([[1, 0], [0, 1], [1, 1]]),
            b_ub=[1, 1, 1],
            lower=[0, 0],
            upper=[np.inf, np.inf],
        )
        assert result.is_optimal
        assert result.objective == pytest.approx(-1.0)

    def test_zero_objective_feasibility_mode(self):
        result = solve_lp_from_dense(
            costs=[0, 0],
            a_eq=np.array([[1, 1]]),
            b_eq=[3],
            lower=[0, 0],
            upper=[np.inf, np.inf],
        )
        assert result.is_optimal
        assert sum(result.x) == pytest.approx(3.0)


class TestBounds:
    def test_finite_bounds_respected(self):
        result = solve_lp_from_dense(
            costs=[-1],
            lower=[2],
            upper=[7],
        )
        assert result.is_optimal
        assert result.x[0] == pytest.approx(7.0)

    def test_negative_lower_bound(self):
        result = solve_lp_from_dense(costs=[1], lower=[-5], upper=[5])
        assert result.is_optimal
        assert result.x[0] == pytest.approx(-5.0)

    def test_upper_bounded_only_variable(self):
        # x <= 3, minimise -x => x = 3.
        result = solve_lp_from_dense(costs=[-1], lower=[-np.inf], upper=[3])
        assert result.is_optimal
        assert result.x[0] == pytest.approx(3.0)

    def test_free_variable_with_equality(self):
        result = solve_lp_from_dense(
            costs=[1, 0],
            a_eq=np.array([[1, 1]]),
            b_eq=[0],
            lower=[-np.inf, -np.inf],
            upper=[np.inf, np.inf],
        )
        # min x with x + y = 0, both free: unbounded below.
        assert result.status == "unbounded"

    def test_crossed_bounds_infeasible(self):
        result = solve_lp_from_dense(costs=[1], lower=[3], upper=[1])
        assert result.status == "infeasible"


class TestStatuses:
    def test_infeasible_system(self):
        result = solve_lp_from_dense(
            costs=[1],
            a_ub=np.array([[1], [-1]]),
            b_ub=[1, -3],  # x <= 1 and x >= 3
            lower=[0],
            upper=[np.inf],
        )
        assert result.status == "infeasible"

    def test_unbounded(self):
        result = solve_lp_from_dense(costs=[-1], lower=[0], upper=[np.inf])
        assert result.status == "unbounded"

    def test_negative_rhs_rows_handled(self):
        # -x <= -2 means x >= 2 (needs an artificial after negation).
        result = solve_lp_from_dense(
            costs=[1],
            a_ub=np.array([[-1]]),
            b_ub=[-2],
            lower=[0],
            upper=[np.inf],
        )
        assert result.is_optimal
        assert result.x[0] == pytest.approx(2.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve_lp_from_dense(costs=[1, 2], a_ub=np.array([[1]]), b_ub=[1])

    def test_reports_iterations(self):
        result = solve_lp_from_dense(
            costs=[-3, -5],
            a_ub=np.array([[1, 0], [0, 2], [3, 2]]),
            b_ub=[4, 12, 18],
            lower=[0, 0],
            upper=[np.inf, np.inf],
        )
        assert result.iterations > 0


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_bounded_lps(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 4, 3
        costs = rng.integers(-5, 6, size=n).astype(float)
        a_ub = rng.integers(-3, 4, size=(m, n)).astype(float)
        b_ub = rng.integers(1, 10, size=m).astype(float)
        lower = np.zeros(n)
        upper = np.full(n, 10.0)
        ours = solve_lp_from_dense(costs, a_ub=a_ub, b_ub=b_ub, lower=lower, upper=upper)

        from scipy.optimize import linprog

        reference = linprog(
            costs, A_ub=a_ub, b_ub=b_ub, bounds=list(zip(lower, upper)),
            method="highs",
        )
        assert ours.is_optimal == (reference.status == 0)
        if ours.is_optimal:
            assert ours.objective == pytest.approx(reference.fun, abs=1e-6)
