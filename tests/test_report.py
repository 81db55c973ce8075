"""Tests for the one-shot reproduction report (repro.analysis.report)."""

import pytest

from repro.analysis import build_report


@pytest.fixture(scope="module")
def report_text():
    # Toy-only, tiny budgets: exercises every section quickly.
    return build_report(
        dataset_keys=("toy",),
        runs=1,
        episodes=50,
        include_transfer=False,
        include_user_study=True,
        include_scalability=True,
    )


class TestReport:
    def test_contains_every_section(self, report_text):
        assert "RL-Planner reproduction report" in report_text
        assert "Planner comparison" in report_text
        assert "Simulated user study" in report_text
        assert "Scalability probe" in report_text

    def test_comparison_row_per_dataset(self, report_text):
        assert "toy" in report_text
        assert "RL-Planner" in report_text
        assert "OMEGA" in report_text

    def test_sections_can_be_disabled(self):
        text = build_report(
            dataset_keys=("toy",),
            runs=1,
            episodes=30,
            include_transfer=False,
            include_user_study=False,
            include_scalability=False,
        )
        assert "Simulated user study" not in text
        assert "Scalability probe" not in text
        assert "Planner comparison" in text

    def test_cli_report_writes_file(self, tmp_path, monkeypatch, capsys):
        from repro import cli

        def fake_build_report(runs, episodes):
            return "FAKE REPORT\n"

        monkeypatch.setattr(cli, "build_report", fake_build_report)
        out_file = tmp_path / "report.txt"
        assert cli.main(["report", "--out", str(out_file)]) == 0
        assert out_file.read_text() == "FAKE REPORT\n"
        assert "FAKE REPORT" in capsys.readouterr().out
