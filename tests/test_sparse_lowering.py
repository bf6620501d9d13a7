"""Property tests for the CSR sparse lowering (`repro.milp.sparse`).

:func:`repro.milp.lowering.lower_model_sparse` is checked against the
model itself: every CSR row must equal its constraint's own
coefficient dict (negated for ``>=`` rows), and at random points the
lowered rows must accept exactly the assignments
:meth:`MILPModel.check_feasible` accepts.  Metamorphic checks add that
row / column permutations of a model leave solve objectives unchanged.
"""

import random

import numpy as np
import pytest

from repro.milp.branch_and_bound import solve_branch_and_bound
from repro.milp.lowering import lower_model_sparse
from repro.milp.model import MILPModel, Sense, SolveStatus, VarType
from repro.milp.sparse import CSRMatrix, SparseArrays

from tests.test_differential_backends import random_grounded_milp


def random_model(seed: int) -> MILPModel:
    """A randomized model exercising lowering edge shapes."""
    rng = random.Random(seed)
    model = MILPModel(f"rand{seed}")
    n = rng.randint(1, 8)
    variables = []
    for i in range(n):
        var_type = rng.choice([VarType.REAL, VarType.INTEGER, VarType.BINARY])
        if var_type is VarType.BINARY:
            variables.append(model.add_variable(f"x{i}", var_type))
        else:
            lower = rng.choice([-10.0, 0.0, -float("inf")])
            upper = rng.choice([10.0, 25.0, float("inf")])
            variables.append(model.add_variable(f"x{i}", var_type, lower, upper))
    for _ in range(rng.randint(0, 6)):
        support = rng.sample(variables, rng.randint(1, len(variables)))
        expr = sum((rng.randint(-5, 5) * v for v in support), start=0)
        sense = rng.choice(["le", "ge", "eq"])
        rhs = rng.randint(-10, 10)
        if sense == "le":
            model.add_constraint(expr <= rhs)
        elif sense == "ge":
            model.add_constraint(expr >= rhs)
        else:
            model.add_constraint(expr == rhs)
    model.set_objective(sum((rng.randint(-3, 3) * v for v in variables), start=0))
    return model


def assert_lowerings_equal(model: MILPModel) -> None:
    """The CSR arrays state exactly the model's rows, bounds and costs."""
    sparse = lower_model_sparse(model)
    n = model.n_variables
    costs = np.zeros(n)
    for index, coefficient in model.objective.coefficients.items():
        costs[index] = coefficient
    np.testing.assert_array_equal(sparse.costs, costs)
    # Each block keeps model order; ">=" rows arrive negated as "<=".
    blocks = {"ub": [], "eq": []}
    for constraint in model.constraints:
        if constraint.sense is Sense.EQ:
            blocks["eq"].append((constraint, 1.0))
        else:
            sign = -1.0 if constraint.sense is Sense.GE else 1.0
            blocks["ub"].append((constraint, sign))
    for matrix, rhs, rows in (
        (sparse.a_ub, sparse.b_ub, blocks["ub"]),
        (sparse.a_eq, sparse.b_eq, blocks["eq"]),
    ):
        assert matrix.shape == (len(rows), n)
        assert rhs.shape == (len(rows),)
        for i, (constraint, sign) in enumerate(rows):
            columns, values = matrix.row(i)
            assert list(columns) == sorted(columns)
            expected = {
                j: sign * c
                for j, c in constraint.expr.coefficients.items()
                if c != 0.0
            }
            assert dict(zip(columns.tolist(), values.tolist())) == expected
            assert rhs[i] == sign * constraint.rhs
    np.testing.assert_array_equal(sparse.lower, [v.lower for v in model.variables])
    np.testing.assert_array_equal(sparse.upper, [v.upper for v in model.variables])
    assert list(sparse.integral) == [
        v.index for v in model.variables if v.var_type.is_integral
    ]
    assert sparse.objective_constant == model.objective.constant


def lowered_feasible(arrays, x: np.ndarray, tolerance: float = 1e-6) -> bool:
    """Feasibility of *x* judged from the lowered arrays alone."""
    if np.any(x < arrays.lower - tolerance) or np.any(x > arrays.upper + tolerance):
        return False
    integral = np.asarray(arrays.integral, dtype=int)
    if np.any(np.abs(x[integral] - np.round(x[integral])) > tolerance):
        return False
    if np.any(arrays.a_ub.matvec(x) > arrays.b_ub + tolerance):
        return False
    return bool(np.all(np.abs(arrays.a_eq.matvec(x) - arrays.b_eq) <= tolerance))


class TestLoweringEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_models_lower_identically(self, seed):
        assert_lowerings_equal(random_model(seed))

    @pytest.mark.parametrize("seed", range(10))
    def test_grounded_milps_lower_identically(self, seed):
        assert_lowerings_equal(random_grounded_milp(seed))

    def test_empty_constraint_model(self):
        model = MILPModel("empty")
        model.add_variable("x", VarType.REAL, lower=0, upper=5)
        model.set_objective(0)
        assert_lowerings_equal(model)
        sparse = lower_model_sparse(model)
        assert sparse.a_ub.shape == (0, 1)
        assert sparse.a_eq.shape == (0, 1)

    def test_single_variable_model(self):
        model = MILPModel("single")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=9)
        model.add_constraint(3 * x <= 7)
        model.add_constraint(x >= 1)
        model.set_objective(-x)
        assert_lowerings_equal(model)
        sparse = lower_model_sparse(model)
        # The >= row must arrive negated into the <= block.
        np.testing.assert_array_equal(sparse.a_ub.to_dense(), [[3.0], [-1.0]])
        np.testing.assert_array_equal(sparse.b_ub, [7.0, -1.0])

    def test_zero_coefficients_are_dropped_from_storage(self):
        matrix = CSRMatrix.from_row_dicts([{0: 0.0, 1: 2.0}, {2: 0.0}], 3)
        assert matrix.nnz == 1
        np.testing.assert_array_equal(
            matrix.to_dense(), [[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]]
        )


class TestLoweredRowsAgreeWithModel:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_points_judged_like_check_feasible(self, seed):
        model = random_model(seed)
        arrays = lower_model_sparse(model)
        rng = np.random.default_rng(seed)
        # Integer points inside (a clipped copy of) each variable's box,
        # plus a few outside it: integral data keeps every row exact.
        low = np.maximum(arrays.lower, -6.0)
        high = np.minimum(arrays.upper, 6.0)
        verdicts = set()
        for trial in range(60):
            if trial % 10 == 9:
                x = rng.integers(-12, 13, size=arrays.n).astype(float)
            else:
                x = np.floor(rng.uniform(low, high + 1.0))
            expected = model.check_feasible(x)
            assert lowered_feasible(arrays, x) == expected, (seed, x)
            verdicts.add(expected)
        assert False in verdicts

    def test_grounded_optima_are_feasible_in_both_views(self):
        checked = 0
        for seed in range(12):
            model = random_grounded_milp(seed)
            solution = solve_branch_and_bound(model)
            if solution.status is not SolveStatus.OPTIMAL:
                continue  # the generator plants infeasible seeds too
            x = np.array([solution.values[v.name] for v in model.variables])
            assert model.check_feasible(x), seed
            assert lowered_feasible(lower_model_sparse(model), x), seed
            checked += 1
        assert checked >= 4


class TestCSRMatrixBehaviour:
    @pytest.mark.parametrize("seed", range(10))
    def test_matvec_rmatvec_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 9), rng.integers(1, 9)
        dense = np.where(rng.random((m, n)) < 0.4, rng.normal(size=(m, n)), 0.0)
        matrix = CSRMatrix.from_dense(dense)
        x = rng.normal(size=n)
        y = rng.normal(size=m)
        np.testing.assert_allclose(matrix.matvec(x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(matrix.rmatvec(y), dense.T @ y, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_csc_view_matches_columns(self, seed):
        rng = np.random.default_rng(seed + 100)
        m, n = rng.integers(1, 9), rng.integers(1, 9)
        dense = np.where(rng.random((m, n)) < 0.4, rng.normal(size=(m, n)), 0.0)
        csc = CSRMatrix.from_dense(dense).csc
        for j in range(n):
            rows, values = csc.column(j)
            expected = np.flatnonzero(dense[:, j])
            np.testing.assert_array_equal(rows, expected)
            np.testing.assert_allclose(values, dense[expected, j])

    def test_with_extra_ub_rows_appends(self):
        arrays = SparseArrays(
            costs=np.array([1.0, 2.0]),
            a_ub=CSRMatrix.from_row_dicts([{0: 1.0}], 2),
            b_ub=np.array([4.0]),
            a_eq=CSRMatrix.empty(2),
            b_eq=np.zeros(0),
            lower=np.zeros(2),
            upper=np.full(2, 10.0),
            integral=[0, 1],
            objective_constant=0.0,
        )
        extended = arrays.with_extra_ub_rows([{0: 1.0, 1: 1.0}], [3.0])
        assert extended.m_ub == 2
        np.testing.assert_array_equal(
            extended.a_ub.to_dense(), [[1.0, 0.0], [1.0, 1.0]]
        )
        np.testing.assert_array_equal(extended.b_ub, [4.0, 3.0])
        # The original is untouched.
        assert arrays.m_ub == 1


def permute_rows(model: MILPModel, seed: int) -> MILPModel:
    """The same model with its constraints re-ordered."""
    rng = random.Random(seed)
    order = list(range(len(model.constraints)))
    rng.shuffle(order)
    clone = MILPModel(f"{model.name}-rowperm")
    for v in model.variables:
        clone.add_variable(v.name, v.var_type, v.lower, v.upper)
    for i in order:
        constraint = model.constraints[i]
        clone.add_constraint(constraint)
    clone.set_objective(model.objective)
    return clone


def permute_columns(model: MILPModel, seed: int) -> MILPModel:
    """The same model with its variables re-indexed."""
    rng = random.Random(seed)
    order = list(range(model.n_variables))
    rng.shuffle(order)
    clone = MILPModel(f"{model.name}-colperm")
    mapping = {}
    for new_index, old_index in enumerate(order):
        v = model.variables[old_index]
        mapping[old_index] = clone.add_variable(v.name, v.var_type, v.lower, v.upper)
    from repro.milp.model import LinExpr

    def translate(expr):
        out = LinExpr()
        for index, coefficient in expr.coefficients.items():
            out.add_term(mapping[index], coefficient)
        out.constant = expr.constant
        return out

    for constraint in model.constraints:
        expr = translate(constraint.expr)
        from repro.milp.model import Sense

        if constraint.sense is Sense.LE:
            clone.add_constraint(expr <= constraint.rhs)
        elif constraint.sense is Sense.GE:
            clone.add_constraint(expr >= constraint.rhs)
        else:
            clone.add_constraint(expr == constraint.rhs)
    clone.set_objective(translate(model.objective))
    return clone


class TestPermutationMetamorphic:
    @pytest.mark.parametrize("seed", range(8))
    def test_row_permutation_preserves_objective(self, seed):
        model = random_grounded_milp(seed)
        base = solve_branch_and_bound(model)
        permuted = solve_branch_and_bound(permute_rows(model, seed + 1))
        assert base.status is permuted.status
        if base.status is SolveStatus.OPTIMAL:
            assert permuted.objective == pytest.approx(base.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_column_permutation_preserves_objective(self, seed):
        model = random_grounded_milp(seed)
        base = solve_branch_and_bound(model)
        permuted = solve_branch_and_bound(permute_columns(model, seed + 1))
        assert base.status is permuted.status
        if base.status is SolveStatus.OPTIMAL:
            assert permuted.objective == pytest.approx(base.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_row_permutation_mps_export_is_stable_per_model(self, seed):
        # Determinism of the sparse export: the same model must always
        # produce the same bytes (dict iteration order must not leak).
        from repro.milp.mps import write_mps_arrays

        model = random_grounded_milp(seed)
        first = write_mps_arrays(lower_model_sparse(model), name="m")
        second = write_mps_arrays(lower_model_sparse(model), name="m")
        assert first == second
