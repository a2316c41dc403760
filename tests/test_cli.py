"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.serve import SCENARIOS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig5_speed"])
        assert args.name == "fig5_speed"
        assert args.tier is None


class TestCommands:
    def test_experiments_lists_all_figures(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for fig in ("fig5_speed", "fig6_winratio", "fig9_multigpu"):
            assert fig in out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "tesla_c2050" in out
        assert "14 SMs" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            main(["run", "fig42"])

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "abl_sequential_part"]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out
        assert "took" in out

    def test_play_tictactoe(self, capsys):
        code = main(
            [
                "play",
                "--game",
                "tictactoe",
                "--opponent",
                "random",
                "--blocks",
                "2",
                "--tpb",
                "32",
                "--budget",
                "0.002",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "wins" in out or "draw" in out

    def test_play_with_engine_specs(self, capsys):
        code = main(
            [
                "play",
                "--game",
                "tictactoe",
                "--engine",
                "root:2",
                "--opponent-engine",
                "sequential",
                "--budget",
                "0.002",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "wins" in out or "draw" in out

    def test_play_rejects_bad_engine_spec(self):
        with pytest.raises(ValueError, match="warp_drive"):
            main(
                [
                    "play",
                    "--game",
                    "tictactoe",
                    "--engine",
                    "warp_drive",
                ]
            )

    def test_serve_bench_small_load(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code = main(
            [
                "serve-bench",
                "--loads",
                "4",
                "--budget-scale",
                "0.5",
                "--trace-out",
                str(trace),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "offered load: 4" in out
        assert "requests/s" in out
        assert trace.exists()

    @pytest.mark.faults
    def test_serve_bench_crash_then_resume(self, capsys, tmp_path):
        journal = tmp_path / "journal.jsonl"
        common = [
            "serve-bench",
            "--loads",
            "8",
            "--devices",
            "2",
            "--budget-scale",
            "0.25",
            "--journal",
            str(journal),
            "--checkpoint-every",
            "5",
        ]
        code = main(common + ["--faults", "crash=tick:20"])
        out = capsys.readouterr().out
        assert code == 3
        assert "service crashed" in out
        assert journal.exists()

        code = main(common + ["--resume"])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered (adopted)" in out
        assert "resumed from checkpoint" in out

    def test_serve_bench_resume_requires_journal(self, capsys):
        assert main(["serve-bench", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_serve_bench_journal_single_load_only(self, capsys, tmp_path):
        code = main(
            [
                "serve-bench",
                "--loads",
                "4,8",
                "--journal",
                str(tmp_path / "j.jsonl"),
            ]
        )
        assert code == 2
        assert "single" in capsys.readouterr().err

    def test_serve_bench_scenario_storm_reproduces_report(self, capsys):
        # benchmarks/REPORT_overload.md, defended column.
        assert main(["serve-bench", "--scenario", "storm"]) == 0
        out = capsys.readouterr().out
        assert "807 arrivals" in out
        assert re.search(
            r"interactive: attainment\s+100\.0% \(165/165\)", out
        )

    def test_serve_bench_unknown_scenario_lists_names(self, capsys):
        assert main(["serve-bench", "--scenario", "nope"]) == 2
        err = capsys.readouterr().err
        for name in SCENARIOS:
            assert name in err

    @pytest.mark.parametrize("flag", ["--faults", "--journal"])
    def test_serve_bench_scenario_fixes_its_layers(
        self, capsys, tmp_path, flag
    ):
        value = {
            "--faults": "crash=tick:3",
            "--journal": str(tmp_path / "j.jsonl"),
        }[flag]
        code = main(["serve-bench", "--scenario", "storm", flag, value])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
