"""Property-based metamorphic tests for the revised simplex core.

Transformations that provably leave the optimum of

    min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  l <= x <= u

unchanged must leave :func:`repro.milp.revised.solve_lp_sparse`'s
reported objective unchanged too:

1. scaling any single constraint row (and its right-hand side) by a
   positive factor describes the same halfspace/hyperplane;
2. permuting the variable order (columns, costs, bounds) relabels the
   polytope without moving it;
3. appending a redundant duplicate of an existing row changes nothing;
4. scaling the objective vector by a positive factor scales the
   optimal value by exactly that factor.

Instances are generated feasible-by-construction (constraints are
anchored on a random interior point), so every case must come back
``optimal`` -- a status flip is itself a failure.  Seeds honour
``REPRO_TEST_SEED`` (see ``tests/_seeds.py``) and appear in test ids
and failure messages.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from tests._lp import solve_lp_from_dense
from tests._seeds import derived_seeds, describe_seed

N_CASES = 30
TOL = 1e-7


def random_feasible_lp(seed: int):
    """A random bounded LP that is feasible by construction.

    A random anchor point ``x0`` inside the box is drawn first; every
    ``<=`` row gets right-hand side ``a.x0 + slack`` (slack >= 0) and
    every ``=`` row gets exactly ``a.x0``, so ``x0`` is feasible.  The
    box keeps the problem bounded.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    lower = np.zeros(n)
    upper = np.full(n, 10.0)
    x0 = np.array([rng.uniform(0.0, 10.0) for _ in range(n)])
    costs = np.array([rng.uniform(-5.0, 5.0) for _ in range(n)])

    n_ub = rng.randint(1, 3)
    a_ub = np.array(
        [[rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0]) for _ in range(n)]
         for _ in range(n_ub)]
    )
    b_ub = a_ub @ x0 + np.array([rng.uniform(0.0, 5.0) for _ in range(n_ub)])

    n_eq = rng.randint(0, 2)
    a_eq = np.array(
        [[rng.choice([-1.0, 0.0, 1.0]) for _ in range(n)] for _ in range(n_eq)]
    ) if n_eq else np.zeros((0, n))
    b_eq = a_eq @ x0 if n_eq else np.zeros(0)

    return costs, a_ub, b_ub, a_eq, b_eq, lower, upper


def optimal_objective(costs, a_ub, b_ub, a_eq, b_eq, lower, upper, note):
    result = solve_lp_from_dense(
        costs, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
        lower=lower, upper=upper,
    )
    assert result.is_optimal, f"expected optimal, got {result.status} {note}"
    return result.objective


@pytest.mark.parametrize("seed", derived_seeds(N_CASES), ids=lambda s: f"seed{s}")
def test_scaling_a_constraint_row_preserves_the_optimum(seed):
    costs, a_ub, b_ub, a_eq, b_eq, lower, upper = random_feasible_lp(seed)
    note = describe_seed(seed)
    baseline = optimal_objective(costs, a_ub, b_ub, a_eq, b_eq, lower, upper, note)

    rng = random.Random(seed + 10_000)
    factor = rng.uniform(0.1, 25.0)
    row = rng.randrange(len(b_ub))
    scaled_a, scaled_b = a_ub.copy(), b_ub.copy()
    scaled_a[row] *= factor
    scaled_b[row] *= factor
    scaled = optimal_objective(
        costs, scaled_a, scaled_b, a_eq, b_eq, lower, upper, note
    )
    assert scaled == pytest.approx(baseline, abs=TOL), (
        f"scaling row {row} by {factor} moved the optimum "
        f"{baseline} -> {scaled} {note}"
    )

    if len(b_eq):
        eq_row = rng.randrange(len(b_eq))
        scaled_a, scaled_b = a_eq.copy(), b_eq.copy()
        scaled_a[eq_row] *= factor
        scaled_b[eq_row] *= factor
        scaled = optimal_objective(
            costs, a_ub, b_ub, scaled_a, scaled_b, lower, upper, note
        )
        assert scaled == pytest.approx(baseline, abs=TOL), (
            f"scaling equality row {eq_row} by {factor} moved the optimum "
            f"{note}"
        )


@pytest.mark.parametrize("seed", derived_seeds(N_CASES), ids=lambda s: f"seed{s}")
def test_permuting_variables_preserves_the_optimum(seed):
    costs, a_ub, b_ub, a_eq, b_eq, lower, upper = random_feasible_lp(seed)
    note = describe_seed(seed)
    baseline = optimal_objective(costs, a_ub, b_ub, a_eq, b_eq, lower, upper, note)

    rng = random.Random(seed + 20_000)
    permutation = list(range(len(costs)))
    rng.shuffle(permutation)
    permuted = optimal_objective(
        costs[permutation],
        a_ub[:, permutation],
        b_ub,
        a_eq[:, permutation] if a_eq.size else a_eq,
        b_eq,
        lower[permutation],
        upper[permutation],
        note,
    )
    assert permuted == pytest.approx(baseline, abs=TOL), (
        f"permutation {permutation} moved the optimum "
        f"{baseline} -> {permuted} {note}"
    )


@pytest.mark.parametrize("seed", derived_seeds(N_CASES), ids=lambda s: f"seed{s}")
def test_duplicating_a_row_preserves_the_optimum(seed):
    costs, a_ub, b_ub, a_eq, b_eq, lower, upper = random_feasible_lp(seed)
    note = describe_seed(seed)
    baseline = optimal_objective(costs, a_ub, b_ub, a_eq, b_eq, lower, upper, note)

    rng = random.Random(seed + 30_000)
    row = rng.randrange(len(b_ub))
    duplicated_a = np.vstack([a_ub, a_ub[row]])
    duplicated_b = np.append(b_ub, b_ub[row])
    duplicated = optimal_objective(
        costs, duplicated_a, duplicated_b, a_eq, b_eq, lower, upper, note
    )
    assert duplicated == pytest.approx(baseline, abs=TOL), (
        f"duplicating row {row} moved the optimum {note}"
    )


@pytest.mark.parametrize("seed", derived_seeds(N_CASES), ids=lambda s: f"seed{s}")
def test_scaling_the_objective_scales_the_optimum(seed):
    costs, a_ub, b_ub, a_eq, b_eq, lower, upper = random_feasible_lp(seed)
    note = describe_seed(seed)
    baseline = optimal_objective(costs, a_ub, b_ub, a_eq, b_eq, lower, upper, note)

    rng = random.Random(seed + 40_000)
    factor = rng.uniform(0.5, 8.0)
    scaled = optimal_objective(
        costs * factor, a_ub, b_ub, a_eq, b_eq, lower, upper, note
    )
    assert scaled == pytest.approx(baseline * factor, abs=1e-6 * max(1.0, factor)), (
        f"scaling the objective by {factor} should scale the optimum "
        f"{baseline} -> {baseline * factor}, got {scaled} {note}"
    )
