"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_params, _parse_size, build_parser, main
from repro.errors import UsageError

JACOBI_SRC = """
program jacobi
  param N = 64
  real*8 A(N,N), B(N,N)
  do i = 2, N-1
    do j = 2, N-1
      B(j,i) = A(j-1,i) + A(j,i-1) + A(j+1,i) + A(j,i+1)
    end do
  end do
end
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "jacobi.dsl"
    path.write_text(JACOBI_SRC)
    return str(path)


class TestHelpers:
    def test_parse_size(self):
        assert _parse_size("16K") == 16384
        assert _parse_size("2048") == 2048
        assert _parse_size("1M") == 1 << 20
        assert _parse_size(" 8k ") == 8192

    def test_parse_params(self):
        assert _parse_params(["N=32", "M=8"]) == {"N": 32, "M": 8}
        assert _parse_params(None) == {}
        with pytest.raises(UsageError):
            _parse_params(["bogus"])

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["pad", "file.dsl", "--cache", "8K"])
        assert args.command == "pad"


class TestCommands:
    def test_pad(self, kernel_file, capsys):
        rc = main(["pad", kernel_file, "--param", "N=512", "--cache", "16K"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PAD" in out
        assert "layout" in out
        assert "jacobi" in out

    def test_pad_report_surfaces_give_ups(self, tmp_path, capsys):
        # Three equal arrays under PADLITE with M = Cs/2: the only
        # address clearing A also conflicts with B, so placing C gives
        # up.  The report must say so — a give-up used to render
        # exactly like "no pad needed" (final == tentative).
        path = tmp_path / "giveup.dsl"
        path.write_text(
            "program giveup\n"
            "real*8 A(40), B(40), C(40)\n"
            "do i = 1, 40\n"
            "  C(i) = A(i) + B(i)\n"
            "end do\n"
            "end\n"
        )
        rc = main(["pad", str(path), "--heuristic", "padlite",
                   "--cache", "256", "--line", "32", "--m", "4", "--lint"])
        out = capsys.readouterr().out
        assert rc == 0
        assert ("inter C: GAVE UP, kept original address 704 "
                "(no satisfying address exists)") in out
        assert ("give-ups: 1 placement(s) kept a conflicting "
                "address: C") in out
        assert ("lint: note: placement gave up on C — hazards at their "
                "original addresses persist "
                "(pad --optimize searches past greedy give-ups)") in out

    def test_pad_report_silent_without_give_ups(self, kernel_file, capsys):
        rc = main(["pad", kernel_file, "--param", "N=512",
                   "--cache", "16K"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "GAVE UP" not in out
        assert "give-ups:" not in out

    def test_pad_optimize_beats_greedy(self, kernel_file, capsys):
        # jacobi at a pow2 geometry: greedy PAD provably loses, the
        # joint search must report a strict win and a guarded layout
        rc = main(["pad", kernel_file, "--param", "N=128",
                   "--cache", "8K", "--optimize", "--beam", "4",
                   "--budget", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OPTIMIZE jacobi" in out
        assert "winner search" in out
        assert "improvement" in out
        assert "guard: passed" in out
        assert "winning assignment" in out

    def test_pad_optimize_bad_knobs_exit_11(self, kernel_file, capsys):
        rc = main(["pad", kernel_file, "--cache", "8K",
                   "--optimize", "--beam", "0"])
        assert rc == 11
        assert "beam width" in capsys.readouterr().err

    def test_simulate(self, kernel_file, capsys):
        rc = main(["simulate", kernel_file, "--param", "N=128", "--cache", "2K"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "original:" in out
        assert "improvement" in out

    def test_simulate_original_only(self, kernel_file, capsys):
        rc = main([
            "simulate", kernel_file, "--param", "N=64",
            "--heuristic", "original", "--cache", "2K",
        ])
        assert rc == 0
        assert "improvement" not in capsys.readouterr().out

    def test_conflicts_exit_code_signals_severity(self, kernel_file, capsys):
        # N=128 on a 2K cache: column 1K = Cs/2 -> 2 cols collide
        rc_bad = main(["conflicts", kernel_file, "--param", "N=256", "--cache", "2K"])
        assert rc_bad == 1
        rc_good = main([
            "conflicts", kernel_file, "--param", "N=256", "--cache", "2K",
            "--heuristic", "pad",
        ])
        assert rc_good == 0

    def test_bench_list(self, capsys):
        rc = main(["bench"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "jacobi" in out and "tomcatv" in out

    def test_bench_run(self, capsys):
        rc = main(["bench", "dot", "--cache", "16K"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "improvement" in out

    def test_figure_subset(self, capsys):
        rc = main(["figure", "fig8", "--programs", "dot"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Figure 8" in out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown figure 'fig99'")

    def test_unknown_heuristic(self, kernel_file, capsys):
        assert main(["pad", kernel_file, "--heuristic", "bogus"]) == 3
        assert "bogus" in capsys.readouterr().err

    def test_error_reported_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.dsl"
        bad.write_text("program p\nreal*8 A(4)\nA(i) = 1\nend\n")  # i unbound
        rc = main(["pad", str(bad)])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_dump(self, kernel_file, tmp_path, capsys):
        out = str(tmp_path / "t.npz")
        rc = main(["trace", kernel_file, out, "--param", "N=16"])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        from repro.trace import load_trace

        addrs, writes, meta = load_trace(out)
        assert meta["program"] == "jacobi"
        assert len(addrs) == (16 - 2) ** 2 * 5

    def test_trace_padded_layout_differs(self, kernel_file, tmp_path):
        import numpy as np

        from repro.trace import load_trace

        out1 = str(tmp_path / "orig.npz")
        out2 = str(tmp_path / "pad.npz")
        main(["trace", kernel_file, out1, "--param", "N=512", "--cache", "2K"])
        main(["trace", kernel_file, out2, "--param", "N=512", "--cache", "2K",
              "--heuristic", "pad"])
        a1, _, _ = load_trace(out1)
        a2, _, _ = load_trace(out2)
        assert len(a1) == len(a2)
        assert not np.array_equal(a1, a2)


class TestFigureSummary:
    def test_summary_markdown(self, capsys):
        rc = main(["figure", "summary", "--programs", "dot"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("| Experiment |")
        assert "Figure 15" in out


class TestFigureConflicts3C:
    def test_conflict_fraction_via_cli(self, capsys):
        rc = main(["figure", "conflicts3c", "--programs", "dot"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conflict share" in out


class TestFigureCharts:
    def test_fig17_charts_flag(self, capsys, monkeypatch):
        # patch the sweep to a tiny grid so the CLI path stays fast
        from repro.experiments import fig17

        real_compute = fig17.compute

        def tiny_compute(*args, **kw):
            from repro.experiments.runner import Runner

            return real_compute(Runner(), kernels=("dgefa",), sizes=(64,))

        monkeypatch.setattr(fig17, "compute", tiny_compute)
        rc = main(["figure", "fig17", "--charts"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "legend" in out
