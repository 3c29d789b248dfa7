"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.runner.systems import SYSTEM_NAMES


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--system", "not-a-ps"])

    def test_rejects_unknown_task(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--task", "not-a-task"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.task == "kge"
        assert args.system == "nups"
        assert args.scale == "test"
        assert args.storage_backend is None
        assert args.trace is None

    def test_backend_flags_round_trip(self):
        args = build_parser().parse_args([
            "run", "--storage-backend", "sparse",
        ])
        assert args.storage_backend == "sparse"
        args = build_parser().parse_args([
            "compare", "--storage-backend", "dense",
        ])
        assert args.storage_backend == "dense"

    def test_sequential_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--sequential"])

    def test_rejects_unknown_backends(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--storage-backend", "mmap"])

    def test_trace_flag_round_trip(self):
        from pathlib import Path

        args = build_parser().parse_args(["run", "--trace", "out.jsonl"])
        assert args.trace == Path("out.jsonl")
        args = build_parser().parse_args(["trace", "out.jsonl",
                                          "--chrome", "c.json", "--top", "3"])
        assert args.file == Path("out.jsonl")
        assert args.chrome == Path("c.json")
        assert args.top == 3


class TestCommands:
    def test_systems_lists_all_registered_systems(self, capsys):
        assert main(["systems"]) == 0
        output = capsys.readouterr().out.strip().splitlines()
        assert set(output) == set(SYSTEM_NAMES)

    def test_tasks_lists_the_three_workloads(self, capsys):
        assert main(["tasks"]) == 0
        output = capsys.readouterr().out.strip().splitlines()
        assert output == ["kge", "matrix_factorization", "word_vectors"]

    def test_skew_prints_statistics(self, capsys):
        assert main(["skew", "--task", "matrix_factorization"]) == 0
        output = capsys.readouterr().out
        assert "sampling_share" in output
        assert "top_share" in output

    def test_run_single_system(self, capsys):
        exit_code = main([
            "run", "--task", "matrix_factorization", "--system", "nups",
            "--nodes", "2", "--workers", "2", "--epochs", "1",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "nups" in output
        assert "epoch_time_s" in output

    def test_run_with_explicit_backends(self, capsys):
        exit_code = main([
            "run", "--task", "matrix_factorization", "--system", "nups",
            "--nodes", "2", "--workers", "2", "--epochs", "1",
            "--storage-backend", "sparse",
        ])
        assert exit_code == 0
        assert "epoch_time_s" in capsys.readouterr().out

    def test_backend_flags_do_not_change_results(self, capsys):
        """CLI backend selection is bit-transparent (same seed, same table)."""
        def table(*flags):
            assert main([
                "run", "--task", "matrix_factorization", "--system", "lapse",
                "--nodes", "2", "--workers", "2", "--epochs", "1", *flags,
            ]) == 0
            return capsys.readouterr().out

        assert table("--storage-backend", "sparse") == table()

    def test_compare_reports_speedups(self, capsys):
        exit_code = main([
            "compare", "--task", "matrix_factorization",
            "--systems", "single-node", "nups",
            "--nodes", "2", "--workers", "2", "--epochs", "1",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "raw speedup" in output
        assert "single-node" in output and "nups" in output

    @pytest.mark.parametrize("command", [
        ["run", "--system", "nups"],
        ["compare", "--systems", "single-node", "nups"],
    ])
    @pytest.mark.parametrize("flag, name", [("--epochs", "epochs"),
                                            ("--nodes", "num_nodes"),
                                            ("--workers", "workers_per_node")])
    def test_configuration_errors_exit_2_without_traceback(
            self, capsys, command, flag, name):
        """A configuration the config classes reject is a usage error: one
        ``repro <command>: error:`` line naming the remedy, exit code 2, and
        no training starts."""
        exit_code = main([*command, "--task", "kge", "--scale", "test",
                          flag, "0"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {command[0]}: error: {name} must be")

    @pytest.fixture
    def no_training(self, monkeypatch):
        """Fail the test if any experiment starts."""
        import repro.cli

        def refuse(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(repro.cli, "run_experiment", refuse)

    @pytest.mark.parametrize("command", [
        ["run", "--system", "nups"],
        ["compare", "--systems", "single-node", "nups"],
    ])
    def test_negative_seed_exits_2(self, capsys, no_training, command):
        """A negative seed is a usage error, not a NumPy traceback."""
        assert main([*command, "--task", "kge", "--seed", "-1"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {command[0]}: error: seed must be")

    @pytest.mark.parametrize("command", [
        ["run", "--system", "nups"],
        ["compare", "--systems", "single-node", "nups"],
    ])
    def test_trace_into_missing_directory_exits_2(self, capsys, tmp_path,
                                                  no_training, command):
        """A trace path whose directory does not exist is rejected before
        any training, instead of failing once the run is over."""
        trace = tmp_path / "missing" / "x.jsonl"
        assert main([*command, "--task", "kge", "--trace", str(trace)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {command[0]}: error: trace path")
        assert "does not exist" in lines[0]
        assert not trace.parent.exists()
