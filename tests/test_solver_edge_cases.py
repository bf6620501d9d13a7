"""Edge cases of the solver stack not covered elsewhere."""

import numpy as np
import pytest

from repro.milp import MILPModel, SolveStatus, VarType, solve
from repro.milp.branch_and_bound import solve_branch_and_bound

from tests._lp import solve_lp_from_dense


class TestSimplexLimits:
    def test_iteration_limit_reported(self):
        result = solve_lp_from_dense(
            costs=[-3, -5],
            a_ub=np.array([[1, 0], [0, 2], [3, 2]]),
            b_ub=[4, 12, 18],
            lower=[0, 0],
            upper=[np.inf, np.inf],
            max_iterations=1,
        )
        assert result.status == "iteration_limit"

    def test_no_constraints_bounded(self):
        result = solve_lp_from_dense(costs=[1.0], lower=[-3], upper=[5])
        assert result.is_optimal
        assert result.x[0] == pytest.approx(-3.0)

    def test_redundant_equalities(self):
        # The same equality twice: phase 1 leaves a dependent row; the
        # solver must still finish.
        result = solve_lp_from_dense(
            costs=[1, 0],
            a_eq=np.array([[1, 1], [2, 2]]),
            b_eq=[4, 8],
            lower=[0, 0],
            upper=[np.inf, np.inf],
        )
        assert result.is_optimal
        assert result.x[0] + result.x[1] == pytest.approx(4.0)

    def test_zero_coefficient_rows(self):
        # An all-zero <= row with a non-negative RHS is vacuous.
        result = solve_lp_from_dense(
            costs=[1],
            a_ub=np.array([[0.0]]),
            b_ub=[3.0],
            lower=[0],
            upper=[10],
        )
        assert result.is_optimal

    def test_zero_row_infeasible(self):
        # An all-zero <= row with negative RHS can never hold.
        result = solve_lp_from_dense(
            costs=[1],
            a_ub=np.array([[0.0]]),
            b_ub=[-1.0],
            lower=[0],
            upper=[10],
        )
        assert result.status == "infeasible"


class TestBranchAndBoundEdges:
    def test_all_variables_fixed_by_bounds(self):
        model = MILPModel("fixed")
        x = model.add_variable("x", VarType.INTEGER, lower=3, upper=3)
        model.set_objective(x)
        solution = solve_branch_and_bound(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.values["x"] == pytest.approx(3.0)

    def test_objective_free_model(self):
        # Pure feasibility: zero objective over a constrained box.
        model = MILPModel("feas")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=5)
        model.add_constraint(2 * x >= 3)
        model.set_objective(0 * x)
        solution = solve_branch_and_bound(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.values["x"] >= 2

    def test_negative_integer_ranges(self):
        model = MILPModel("neg")
        x = model.add_variable("x", VarType.INTEGER, lower=-7, upper=-2)
        model.add_constraint(2 * x <= -9)
        model.set_objective(-x)  # maximise x subject to x <= -4.5 -> -5
        solution = solve_branch_and_bound(model)
        assert solution.values["x"] == pytest.approx(-5.0)

    @pytest.mark.parametrize("backend", ["scipy", "bnb", "bnb-simplex"])
    def test_large_coefficient_stability(self, backend):
        # Big-M-style structure: the solvers agree despite magnitude gaps.
        model = MILPModel("bigm")
        y = model.add_variable("y", VarType.REAL, lower=-1e6, upper=1e6)
        d = model.add_variable("d", VarType.BINARY)
        model.add_constraint(y - 1e6 * d <= 0)
        model.add_constraint(-1 * y - 1e6 * d <= 0)
        model.add_constraint(y == 42)
        model.set_objective(d)
        solution = solve(model, backend=backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(1.0)


class TestScipyAdapterEdges:
    def test_model_without_constraints(self):
        model = MILPModel("free")
        x = model.add_variable("x", VarType.INTEGER, lower=1, upper=9)
        model.set_objective(x)
        solution = solve(model, backend="scipy")
        assert solution.objective == pytest.approx(1.0)

    def test_variable_free_model(self):
        model = MILPModel("empty")
        model.set_objective(7)
        solution = solve(model, backend="scipy")
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(7.0)
