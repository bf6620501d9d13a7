"""Unit tests specific to the branch-and-bound search."""

import pytest

from repro.milp.branch_and_bound import solve_branch_and_bound
from repro.milp.model import MILPModel, SolveStatus, VarType


class TestSearchBehaviour:
    def test_pure_lp_needs_no_branching(self):
        model = MILPModel("lp")
        x = model.add_variable("x", VarType.REAL, lower=0, upper=4)
        model.set_objective(-x)
        # presolve=False so the node counter reflects the actual search.
        solution = solve_branch_and_bound(model, presolve=False)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.stats["nodes"] == 1.0

    def test_presolve_skips_trivial_search(self):
        model = MILPModel("lp")
        x = model.add_variable("x", VarType.REAL, lower=0, upper=4)
        model.set_objective(-x)
        solution = solve_branch_and_bound(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-4.0)
        assert solution.stats["presolve_solved"] == 1.0
        assert solution.stats["nodes"] == 0.0

    def test_branching_explores_children(self):
        model = MILPModel("branch")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=10)
        model.add_constraint(2 * x <= 5)
        model.set_objective(-x)
        # cuts=False: a Gomory round would close x <= 2.5 to x <= 2 and
        # make the root integral; this test is about the branching path.
        solution = solve_branch_and_bound(model, presolve=False, cuts=False)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.stats["nodes"] > 1.0

    def test_root_cuts_close_simple_gap_without_branching(self):
        # The flip side of the test above: with cuts on, the same model
        # needs no branching at all and still reports the cut counters.
        model = MILPModel("cut")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=10)
        model.add_constraint(2 * x <= 5)
        model.set_objective(-x)
        solution = solve_branch_and_bound(model, presolve=False)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-2.0)
        assert solution.stats["nodes"] == 1.0
        assert solution.stats["cut_rounds"] >= 1.0

    @pytest.mark.parametrize("lp_backend", ["simplex", "scipy"])
    def test_root_infeasible_only_after_cuts_is_searched_again(
        self, lp_backend, monkeypatch
    ):
        # A cut that excludes every integer point (x >= 11 with x <= 10)
        # stands for a Gomory row that numerics made invalid.
        import repro.milp.branch_and_bound as bnb
        from repro.milp.cuts import Cut

        original = bnb.root_cut_loop

        def poisoned(arrays, **kwargs):
            result = original(arrays, **kwargs)
            cut = Cut(((0, -1.0),), -11.0, "gomory")
            result.arrays = result.arrays.with_extra_ub_rows(
                [cut.as_row_dict()], [cut.rhs]
            )
            result.cuts.append(cut)
            return result

        monkeypatch.setattr(bnb, "root_cut_loop", poisoned)
        model = MILPModel("poisoned")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=10)
        model.add_constraint(2 * x <= 7)
        model.set_objective(-x)
        solution = solve_branch_and_bound(
            model, lp_backend=lp_backend, presolve=False, time_limit=30.0
        )
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-3.0)
        assert solution.stats["root_cuts_dropped"] >= 1.0
        assert "cut_rounds" not in solution.stats  # the re-solve ran uncut

    def test_unbounded_root(self):
        model = MILPModel("unb")
        x = model.add_variable("x", VarType.INTEGER)
        model.set_objective(x)
        assert solve_branch_and_bound(model).status is SolveStatus.UNBOUNDED

    def test_infeasible_root(self):
        model = MILPModel("inf")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=1)
        model.add_constraint(x >= 5)
        model.set_objective(x)
        assert solve_branch_and_bound(model).status is SolveStatus.INFEASIBLE

    def test_infeasible_only_in_integers(self):
        # LP relaxation feasible (x = 0.5) but no integer point exists.
        model = MILPModel("gap")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=1)
        model.add_constraint(2 * x >= 1)
        model.add_constraint(2 * x <= 1)
        model.set_objective(x)
        assert solve_branch_and_bound(model).status is SolveStatus.INFEASIBLE

    def test_node_limit_reported(self):
        model = MILPModel("limit")
        xs = [model.add_variable(f"x{i}", VarType.INTEGER, 0, 1) for i in range(6)]
        model.add_constraint(sum((2 * x for x in xs), start=0) <= 5)
        model.set_objective(sum((-x for x in xs), start=0))
        solution = solve_branch_and_bound(model, max_nodes=1)
        assert solution.status in (SolveStatus.OPTIMAL, SolveStatus.ITERATION_LIMIT)

    def test_unknown_lp_backend_rejected(self):
        with pytest.raises(ValueError):
            solve_branch_and_bound(MILPModel("m"), lp_backend="gurobi")

    @pytest.mark.parametrize("lp_backend", ["scipy", "simplex"])
    def test_lp_backends_equivalent(self, lp_backend):
        model = MILPModel("eq")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=7)
        y = model.add_variable("y", VarType.INTEGER, lower=0, upper=7)
        model.add_constraint(3 * x + 5 * y <= 15)
        model.set_objective(-2 * x - 3 * y)
        solution = solve_branch_and_bound(model, lp_backend=lp_backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-10.0)  # x=5,y=0
