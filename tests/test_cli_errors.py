"""CLI error paths: exit codes, clean one-line messages, fault round-trip.

Satellite of ISSUE 1: every :class:`~repro.errors.ReproError` subclass
must map to a nonzero exit code with a one-line message (no traceback),
and a ``run-all --chaos`` schedule must round-trip through the chaos
harness.
"""

import json
import pathlib

import pytest

from repro import cli, errors
from repro.engine.store import CrashSafeStore
from repro.errors import (
    ConfigError,
    EngineError,
    FrontendError,
    LowerError,
    ReproError,
    RunTimeout,
    StoreCorruption,
    WorkerCrashed,
)


DOT = str(pathlib.Path(__file__).resolve().parent.parent
          / "examples" / "kernels" / "dot.dsl")


def all_error_classes():
    """Every ReproError subclass defined in repro.errors, plus the base."""
    classes = {ReproError}
    frontier = [ReproError]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            if sub not in classes:
                classes.add(sub)
                frontier.append(sub)
    return sorted(classes, key=lambda c: c.__name__)


class TestExitCodeMapping:
    @pytest.mark.parametrize("cls", all_error_classes(), ids=lambda c: c.__name__)
    def test_every_error_maps_to_nonzero_exit(self, cls, monkeypatch, capsys):
        exc = cls("boom")

        def raising(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_bench", raising)
        rc = cli.main(["bench"])
        assert rc != 0
        assert rc == cli.exit_code_for(exc)
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # exactly one line
        assert "boom" in err
        assert "Traceback" not in err

    def test_engine_errors_are_distinguishable(self):
        codes = {
            cli.exit_code_for(exc)
            for exc in (EngineError("e"), RunTimeout("t"),
                        WorkerCrashed("w"), StoreCorruption("s"))
        }
        assert len(codes) == 4
        assert 0 not in codes and 1 not in codes

    def test_library_errors_keep_historic_code_2(self):
        assert cli.exit_code_for(LowerError("x")) == 2
        assert cli.exit_code_for(ConfigError("x")) == 2
        assert cli.exit_code_for(ReproError("x")) == 2

    def test_every_defined_error_is_a_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert obj is ReproError or issubclass(obj, ReproError)


class TestErrorMessages:
    def test_frontend_error_keeps_column_when_line_is_zero(self):
        exc = FrontendError("bad token", line=0, column=7)
        assert "0:7" in str(exc)
        assert exc.column == 7

    def test_frontend_error_plain_when_no_position(self):
        assert str(FrontendError("bad token")) == "bad token"

    def test_config_error_names_offending_value(self):
        from repro.cache.config import CacheConfig

        with pytest.raises(ConfigError, match="3000"):
            CacheConfig(size_bytes=3000)
        with pytest.raises(ConfigError, match="24"):
            CacheConfig(size_bytes=1024, line_bytes=24)
        with pytest.raises(ConfigError, match="64.*32|32.*64"):
            CacheConfig(size_bytes=32, line_bytes=64)
        with pytest.raises(ConfigError, match="0"):
            CacheConfig(size_bytes=1024, line_bytes=32, associativity=0)
        with pytest.raises(ConfigError, match="64"):
            CacheConfig(size_bytes=1024, line_bytes=32, associativity=64)


def schedule_file(tmp_path, schedule):
    path = tmp_path / "chaos.json"
    path.write_text(json.dumps(schedule))
    return str(path)


class TestRunAllCli:
    def test_inject_faults_round_trips(self, tmp_path, capsys):
        chaos = schedule_file(tmp_path, {"seed": 3, "worker": {"error": 0.3}})
        rc = cli.main([
            "run-all", "--figures", "fig9", "--programs", "dot",
            "--jobs", "2", "--timeout", "10", "--retries", "2",
            "--chaos", chaos,
            "--cache-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert "Figure 9" in out
        assert "run-all:" in out
        # the chaos harness really ran: store + journal exist and are sane
        with CrashSafeStore(tmp_path / "runner_cache.db") as store:
            assert len(store.scan()) == len(store) > 0
            assert store.quarantine_rows() == []
        journal = [
            json.loads(line)
            for line in (tmp_path / "journal.jsonl").read_text().splitlines()
        ]
        assert {"start", "finish"} <= {e["event"] for e in journal}
        assert any(e.get("injected") == "error" for e in journal)

    def test_bad_fault_spec_is_a_clean_config_error(self, tmp_path, capsys):
        chaos = schedule_file(tmp_path, {"worker": {"explode": 1}})
        rc = cli.main(["run-all", "--chaos", chaos])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "explode" in err

    @pytest.mark.parametrize("section, body", [
        ("serve", {"queue_flood": 4}),
        ("campaign", {"ckill": 1}),
    ])
    def test_service_and_campaign_faults_refused(
        self, tmp_path, capsys, section, body
    ):
        chaos = schedule_file(tmp_path, {"worker": {"kill": 0.1},
                                         section: body})
        rc = cli.main(["run-all", "--chaos", chaos])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and repr(section) in err

    def test_unknown_figure_is_a_clean_config_error(self, capsys):
        rc = cli.main(["run-all", "--figures", "fig99"])
        assert rc == 2
        assert "fig99" in capsys.readouterr().err

    def test_failed_runs_give_exit_code_1(self, tmp_path, capsys):
        # error injected on every attempt, no fallback -> every run fails,
        # yet run-all still completes and reports instead of crashing
        chaos = schedule_file(tmp_path, {"worker": {"error": 1.0}})
        rc = cli.main([
            "run-all", "--figures", "fig9", "--programs", "dot",
            "--jobs", "2", "--timeout", "10", "--retries", "0",
            "--chaos", chaos,
            "--no-fallback",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "failed:" in captured.err
        assert "incomplete" in captured.out  # figures degrade to placeholders


class TestUsageErrors:
    """Bad flag values fail fast with one line naming the offender."""

    def test_metrics_to_missing_directory(self, capsys):
        rc = cli.main(["bench", "--metrics", "/nonexistent-xyz/m.json"])
        assert rc == cli.exit_code_for(errors.UsageError("x"))
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "/nonexistent-xyz" in err and "does not exist" in err

    def test_trace_out_to_missing_directory(self, capsys):
        rc = cli.main(["trace", "kernel.k", "/nonexistent-xyz/t.npz"])
        assert rc == cli.exit_code_for(errors.UsageError("x"))
        err = capsys.readouterr().err
        assert "/nonexistent-xyz" in err
        assert "Traceback" not in err

    def test_garbage_guard_budget(self, capsys):
        rc = cli.main(["bench", "--guard", "warn", "--guard-budget", "12xyz"])
        assert rc == cli.exit_code_for(errors.UsageError("x"))
        err = capsys.readouterr().err
        assert "12xyz" in err

    def test_usage_code_is_distinct(self):
        assert cli.exit_code_for(errors.UsageError("x")) not in {
            0, 1,
            cli.exit_code_for(errors.ReproError("x")),
            cli.exit_code_for(errors.EngineError("x")),
            cli.exit_code_for(errors.GuardError("x")),
        }

    def test_valid_guard_budget_sizes_parse(self):
        assert cli._parse_size("64k") == 64 * 1024
        assert cli._parse_size("2m") == 2 * 1024 * 1024

    @pytest.mark.parametrize(
        "argv,flag,value",
        [
            (["simulate", DOT, "--cache", "16Q"], "--cache", "16Q"),
            (["simulate", DOT, "--line", "3x"], "--line", "3x"),
            (["pad", DOT, "--cache", "1G"], "--cache", "1G"),
            (["serve", "--max-body", "64KB"], "--max-body", "64KB"),
            (["serve", "--max-body", "0"], "--max-body", "0"),
            (["serve", "--max-body", "-1"], "--max-body", "-1"),
            (["simulate", DOT, "--param", "N=abc"], "--param", "N=abc"),
            (["simulate", DOT, "--param", "N"], "--param", "N"),
            (["simulate", DOT, "--heuristic", "nosuch"],
             "--heuristic", "nosuch"),
        ],
        ids=["cache", "line", "pad-cache", "max-body", "max-body-zero",
             "max-body-negative", "param-value",
             "param-no-equals", "heuristic"],
    )
    def test_bad_flag_value_is_a_usage_error(self, argv, flag, value, capsys):
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc == cli.exit_code_for(errors.UsageError("x"))
        assert out == ""  # rejected before the command prints anything
        assert err.count("\n") == 1 and "Traceback" not in err
        assert flag in err and repr(value) in err
