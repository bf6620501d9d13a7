"""Tests for the command-line interface (repro.cli)."""

import signal

import pytest

from repro.cli import main
from repro.datasets import paper_ground_truth
from repro.relational.csvio import load_database
from repro.relational.schematext import load_schema


@pytest.fixture
def project(tmp_path):
    """An initialised project directory (the running example)."""
    directory = tmp_path / "proj"
    assert main(["init", str(directory)]) == 0
    return directory


class TestInit:
    def test_creates_all_files(self, project):
        assert (project / "schema.txt").exists()
        assert (project / "constraints.dsl").exists()
        assert (project / "CashBudget.csv").exists()

    def test_data_is_the_acquired_instance(self, project):
        schema = load_schema(project / "schema.txt")
        database = load_database(schema, project)
        assert database.get_value("CashBudget", 3, "Value") == 250


class TestCheck:
    def test_inconsistent_project_exits_one(self, project, capsys):
        assert main(["check", str(project)]) == 1
        out = capsys.readouterr().out
        assert "INCONSISTENT" in out
        assert "detail_vs_aggregate" in out

    def test_consistent_project_exits_zero(self, project, tmp_path, capsys):
        fixed = tmp_path / "fixed"
        main(["repair", str(project), "--output", str(fixed)])
        # Reuse the metadata next to the repaired data.
        (fixed / "schema.txt").write_text((project / "schema.txt").read_text())
        (fixed / "constraints.dsl").write_text(
            (project / "constraints.dsl").read_text()
        )
        capsys.readouterr()
        assert main(["check", str(fixed)]) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_missing_project_errors(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["check", str(tmp_path / "nope")])
        assert info.value.code == 2


class TestRepair:
    def test_prints_the_suggested_update(self, project, capsys):
        assert main(["repair", str(project)]) == 0
        out = capsys.readouterr().out
        assert "250 -> 220" in out

    def test_output_written_and_correct(self, project, tmp_path, capsys):
        fixed = tmp_path / "out"
        assert main(["repair", str(project), "--output", str(fixed)]) == 0
        schema = load_schema(project / "schema.txt")
        repaired = load_database(schema, fixed)
        assert repaired == paper_ground_truth()

    def test_show_milp(self, project, capsys):
        main(["repair", str(project), "--show-milp"])
        out = capsys.readouterr().out
        assert "min (d1 + d2" in out
        assert "y4 = z4 - 250" in out

    def test_total_change_objective(self, project, capsys):
        assert main(["repair", str(project), "--objective", "total-change"]) == 0
        assert "250 -> 220" in capsys.readouterr().out

    def test_export_mps(self, project, tmp_path, capsys):
        target = tmp_path / "instance.mps"
        assert main(["repair", str(project), "--export-mps", str(target)]) == 0
        from repro.milp import SolveStatus, read_mps, solve

        model = read_mps(target)
        solution = solve(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(1.0)

    def test_heuristic_backend_is_rejected(self, project, capsys):
        # The greedy repair is no backend: its answer carries no
        # minimality certificate, so it may not be printed as optimal.
        with pytest.raises(SystemExit) as info:
            main(["repair", str(project), "--backend", "heuristic"])
        assert info.value.code == 2
        assert "invalid choice: 'heuristic'" in capsys.readouterr().err

    def test_no_presolve_escape_hatch(self, project, capsys):
        assert main(
            ["repair", str(project), "--backend", "bnb", "--no-presolve"]
        ) == 0
        assert "250 -> 220" in capsys.readouterr().out

    def test_stats_show_new_counters(self, project, capsys):
        assert main(
            ["repair", str(project), "--backend", "bnb-simplex", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "seeded(gap=" in out


CONTRADICTORY_PINS = [
    "--pin", "CashBudget:1:Value=100",
    "--pin", "CashBudget:2:Value=50",
    "--pin", "CashBudget:3:Value=999",
]


class TestInfeasibilityForensics:
    def test_explain_infeasible_on_repairable_project_exits_zero(
        self, project, capsys
    ):
        assert main(["repair", str(project), "--explain-infeasible"]) == 0
        assert "repairable" in capsys.readouterr().out

    def test_explain_infeasible_names_the_conflict(self, project, capsys):
        code = main(
            ["repair", str(project), "--explain-infeasible"]
            + CONTRADICTORY_PINS
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "INFEASIBLE" in out
        assert "detail_vs_aggregate" in out
        assert "CashBudget[3].Value = 999" in out

    def test_on_infeasible_explain_carries_conflict_into_the_error(
        self, project, capsys
    ):
        with pytest.raises(SystemExit) as info:
            main(
                ["repair", str(project), "--on-infeasible", "explain"]
                + CONTRADICTORY_PINS
            )
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "infeasible system" in err
        assert "detail_vs_aggregate" in err

    def test_on_infeasible_relax_returns_relaxed_repair(self, project, capsys):
        code = main(
            ["repair", str(project), "--on-infeasible", "relax"]
            + CONTRADICTORY_PINS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RELAXED" in out
        assert "detail_vs_aggregate" in out

    def test_violation_report_is_written_as_json(
        self, project, tmp_path, capsys
    ):
        import json

        report_path = tmp_path / "violations.json"
        code = main(
            ["repair", str(project), "--on-infeasible", "relax",
             "--violation-report", str(report_path)]
            + CONTRADICTORY_PINS
        )
        assert code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["status"] == "relaxed"
        assert payload["n_violated"] == 1
        assert payload["violations"][0]["source"] == "detail_vs_aggregate"

    def test_violation_report_on_exact_repair_is_empty(
        self, project, tmp_path, capsys
    ):
        import json

        report_path = tmp_path / "violations.json"
        assert main(
            ["repair", str(project), "--violation-report", str(report_path)]
        ) == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["n_violated"] == 0
        assert payload["status"] == "optimal"

    def test_bad_pin_spec_errors(self, project):
        with pytest.raises(SystemExit) as info:
            main(["repair", str(project), "--pin", "CashBudget-3-Value-999"])
        assert info.value.code == 2

    def test_batch_on_infeasible_relax(self, project, capsys):
        # The pin-free project is repairable, so drive the relax path
        # through an engine-level contradiction: none here means the
        # flag must simply not change a feasible batch.
        assert main(
            ["batch", str(project), "--on-infeasible", "relax"]
        ) == 0
        out = capsys.readouterr().out
        assert "repaired" in out


class TestServe:
    def test_serve_prints_the_batch_result_lines(self, project, tmp_path, capsys):
        assert main(["batch", str(project)]) == 0
        batch_line = capsys.readouterr().out.splitlines()[0]
        journal = tmp_path / "serve.journal"
        assert main(["serve", str(project), "--checkpoint", str(journal)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == batch_line
        assert main(["serve", str(project), "--checkpoint", str(journal)]) == 0
        resumed_line = capsys.readouterr().out.splitlines()[0]
        assert resumed_line == batch_line + " [resumed from checkpoint]"

    def test_serve_restores_signal_handlers(self, project):
        # serve drains on SIGTERM/SIGINT while it runs, and only then.
        signals = (signal.SIGTERM, signal.SIGINT)
        before = {sig: signal.getsignal(sig) for sig in signals}
        assert main(["serve", str(project)]) == 0
        assert {sig: signal.getsignal(sig) for sig in signals} == before


class TestAnswers:
    def test_consistent_answer(self, project, capsys):
        code = main(
            ["answers", str(project), "--function", "chi2",
             "--args", "2003,total cash receipts"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "consistent answer: 220" in out
        assert "acquired instance: 250" in out

    def test_unknown_function_errors(self, project):
        with pytest.raises(SystemExit) as info:
            main(["answers", str(project), "--function", "nope", "--args", "1"])
        assert info.value.code == 2

    def test_wrong_arity_errors(self, project):
        with pytest.raises(SystemExit) as info:
            main(["answers", str(project), "--function", "chi2", "--args", "2003"])
        assert info.value.code == 2


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "card-minimal repair" in out
        assert "250 -> 220" in out
