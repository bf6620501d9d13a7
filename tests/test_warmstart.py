"""Tests for the warm-started node LPs of the branch-and-bound tree.

The warm-start tree must be an *invisible* optimisation: every child
LP it re-solves from the parent basis has to agree exactly (status and
objective) with a cold :func:`repro.milp.revised.solve_lp_sparse` call
on the same bounds.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.milp.branch_and_bound import solve_branch_and_bound
from repro.milp.lowering import lower_model_sparse
from repro.milp.model import SolveStatus
from repro.milp.revised import solve_lp_sparse
from repro.milp.warmstart import SparseWarmStartTree

from tests._lp import lp_arrays
from tests._seeds import derived_seeds, describe_seed
from tests.test_differential_backends import random_grounded_milp

SEEDS = derived_seeds(20)


class TestWarmStartAgreement:
    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_root_matches_cold_solve(self, seed):
        arrays = lower_model_sparse(random_grounded_milp(seed))
        tree = SparseWarmStartTree(arrays)
        warm, state = tree.solve_root()
        cold = solve_lp_sparse(arrays)
        assert warm.status == cold.status, describe_seed(seed)
        if cold.status == "optimal":
            assert state is not None
            assert warm.objective == pytest.approx(
                cold.objective, abs=1e-6
            ), describe_seed(seed)

    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_children_match_cold_solves(self, seed):
        """Random single-bound branchings from the root agree with cold."""
        arrays = lower_model_sparse(random_grounded_milp(seed))
        tree = SparseWarmStartTree(arrays)
        root, state = tree.solve_root()
        if state is None:
            return
        rng = random.Random(seed)
        for _ in range(8):
            index = rng.choice(arrays.integral)
            value = root.x[index]
            if rng.random() < 0.5:
                side = "upper"
                bound = float(math.floor(value))
                if bound < arrays.lower[index]:
                    continue
                lower, upper = arrays.lower.copy(), arrays.upper.copy()
                upper[index] = bound
            else:
                side = "lower"
                bound = float(math.ceil(value))
                if bound > arrays.upper[index]:
                    continue
                lower, upper = arrays.lower.copy(), arrays.upper.copy()
                lower[index] = bound
            warm, child_state = tree.solve_child(state, index, side, bound)
            cold = solve_lp_sparse(arrays, lower, upper)
            assert warm.status == cold.status, describe_seed(seed)
            if cold.status == "optimal":
                assert child_state is not None
                assert warm.objective == pytest.approx(
                    cold.objective, abs=1e-6
                ), describe_seed(seed)

    def test_unbounded_variables_accepted(self):
        # Bounds are handled implicitly by the revised simplex, so an
        # unbounded integer variable warm-starts like any other.
        arrays = lp_arrays(
            [1.0, -1.0],
            a_ub=[[-1.0, 1.0]],
            b_ub=[2.5],
            lower=[0.0, 0.0],
            upper=[np.inf, np.inf],
        )
        arrays.integral.extend([0, 1])
        tree = SparseWarmStartTree(arrays)
        root, state = tree.solve_root()
        assert root.status == "optimal" and state is not None
        assert root.objective == pytest.approx(-2.5)
        child, child_state = tree.solve_child(state, 1, "upper", 2.0)
        assert child.status == "optimal" and child_state is not None
        assert child.objective == pytest.approx(-2.0)


class TestWarmStartInTheSearch:
    @pytest.mark.parametrize("seed", SEEDS[:10], ids=[f"seed{s}" for s in SEEDS[:10]])
    def test_warm_and_cold_searches_agree(self, seed):
        # The scipy node LPs never warm-start from a revised-simplex
        # basis, so they are the cold reference for the same search.
        model = random_grounded_milp(seed)
        warm = solve_branch_and_bound(
            model, lp_backend="simplex", presolve=False
        )
        cold = solve_branch_and_bound(
            model, lp_backend="scipy", presolve=False
        )
        assert warm.status is cold.status, describe_seed(seed)
        if cold.status is SolveStatus.OPTIMAL:
            assert warm.objective == pytest.approx(
                cold.objective, abs=1e-6
            ), describe_seed(seed)

    def test_warm_start_hits_are_counted(self):
        # A model that needs branching so child solves actually happen.
        for seed in SEEDS:
            model = random_grounded_milp(seed)
            solution = solve_branch_and_bound(
                model, lp_backend="simplex", presolve=False
            )
            if solution.stats.get("nodes", 0) > 1:
                assert solution.stats["warm_start_hits"] > 0
                return
        pytest.skip("no seed produced a branching search")
