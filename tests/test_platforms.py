"""Tests for the platform layer and the analysis sweep/renderers."""

import pytest

from repro.analysis import PAPER, render_grid, render_table1, sweep_figure
from repro.apps import get_benchmark, problem_sizes
from repro.platforms import TFluxCell, TFluxHard, TFluxSoft


def test_platform_kernel_budgets():
    assert TFluxHard().max_kernels == 27  # 28 cores - OS core
    assert TFluxSoft().max_kernels == 6  # 8 - OS - TSU emulator
    assert TFluxCell().max_kernels == 6  # usable SPEs


def test_platform_targets_match_table1_columns():
    assert TFluxHard().target == "S"
    assert TFluxSoft().target == "N"
    assert TFluxCell().target == "C"


def test_execute_rejects_overcommit():
    bench = get_benchmark("trapez")
    size = problem_sizes("trapez", "S")["small"]
    prog = bench.build(size, unroll=32, max_threads=128)
    with pytest.raises(ValueError, match="at most"):
        TFluxSoft().execute(prog, nkernels=7)


def test_evaluate_records_per_unroll_curve():
    plat = TFluxHard()
    bench = get_benchmark("trapez")
    size = problem_sizes("trapez", "S")["small"]
    ev = plat.evaluate(
        bench, size, nkernels=4, unrolls=(4, 16), verify=True, max_threads=256
    )
    assert set(ev.per_unroll) == {4, 16}
    assert ev.speedup == max(ev.per_unroll.values())
    assert ev.best_unroll in (4, 16)
    assert ev.sequential_cycles > ev.parallel_cycles


def test_evaluate_verifies_results():
    plat = TFluxHard()
    bench = get_benchmark("qsort")
    size = problem_sizes("qsort", "S")["small"]
    ev = plat.evaluate(bench, size, nkernels=3, unrolls=(8,), verify=True,
                       max_threads=256)
    assert ev.speedup > 1.0


def test_row_format():
    plat = TFluxHard()
    bench = get_benchmark("trapez")
    size = problem_sizes("trapez", "S")["small"]
    ev = plat.evaluate(bench, size, nkernels=2, unrolls=(16,), verify=False,
                       max_threads=128)
    row = ev.row()
    assert "trapez" in row and "kernels=2" in row


# -- analysis ------------------------------------------------------------------
def test_sweep_figure_grid_complete():
    grid = sweep_figure(
        TFluxHard(),
        benches=("trapez",),
        kernel_counts=(2, 4),
        sizes=("small",),
        unrolls=(16,),
        max_threads=128,
    )
    assert grid.speedup("trapez", 4, "small") > grid.speedup("trapez", 2, "small")
    assert grid.get("trapez", 8, "small") is None


def test_render_grid_contains_all_cells():
    grid = sweep_figure(
        TFluxHard(), ("trapez",), (2,), ("small",), unrolls=(16,), max_threads=128
    )
    text = render_grid(grid, "test grid")
    assert "TRAPEZ" in text and "average" in text


def test_render_table1_structure():
    t = render_table1()
    assert t.count("\n") > 6
    for bench in ("TRAPEZ", "MMULT", "QSORT", "SUSAN", "FFT"):
        assert bench in t


def test_paper_reference_integrity():
    assert PAPER.fig5_large_27["trapez"] == 25.6
    assert PAPER.fig5_average_27 == 21.0
    assert set(PAPER.fig7_best_6) == {"trapez", "mmult", "susan", "qsort"}
    assert PAPER.tsu_latency_max_impact == 0.01


# -- CLI -------------------------------------------------------------------------
def test_cli_runs_single_cell(capsys):
    from repro.cli import main

    rc = main(["trapez", "--platform", "hard", "--kernels", "4",
               "--size", "small", "--unroll", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "TRAPEZ" in out and "speedup" in out


def test_ddmcpp_cli_roundtrip(tmp_path, capsys):
    from repro.preprocessor.cli import main

    src = tmp_path / "prog.ddm"
    src.write_text(
        """
#pragma ddm startprogram name(cli)
#pragma ddm var double x
#pragma ddm thread 1
  x = 41 + 1;
#pragma ddm endthread
#pragma ddm endprogram
"""
    )
    out = tmp_path / "gen.py"
    rc = main([str(src), "-o", str(out), "--run"])
    assert rc == 0
    assert out.exists()
    stdout = capsys.readouterr().out
    assert "'x': 42" in stdout


def test_ddmcpp_cli_reports_syntax_errors(tmp_path, capsys):
    from repro.preprocessor.cli import main

    src = tmp_path / "bad.ddm"
    src.write_text("#pragma ddm endprogram\n")
    rc = main([str(src)])
    assert rc == 1
    assert "ddmcpp:" in capsys.readouterr().err


def test_render_bars():
    from repro.analysis.tables import render_bars

    grid = sweep_figure(
        TFluxHard(), ("trapez",), (2, 4), ("small",), unrolls=(16,), max_threads=128
    )
    # The bars draw the large input: relabel the small cells.
    grid.cells = {(b, nk, "large"): ev for (b, nk, _), ev in grid.cells.items()}
    art = render_bars(grid)
    assert "TRAPEZ" in art
    assert "█" in art
    # The 4-kernel bar is longer than the 2-kernel bar.
    lines = [l for l in art.splitlines() if "|" in l]
    assert lines[1].count("█") > lines[0].count("█")


def test_cli_clean_error_on_overcommit(capsys):
    """Regression: --kernels beyond the platform budget must print a clean
    error (not a traceback) and exit 2."""
    from repro.cli import main

    rc = main(["trapez", "--platform", "hard", "--kernels", "99",
               "--size", "small", "--unroll", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "tflux-run: error:" in err and "27" in err


def test_cli_clean_error_on_bad_unroll(capsys):
    from repro.cli import main

    rc = main(["trapez", "--kernels", "2", "--size", "small", "--unroll", "-3"])
    assert rc == 2
    assert "unroll" in capsys.readouterr().err


def test_ddmcpp_cli_missing_file(capsys):
    from repro.preprocessor.cli import main

    rc = main(["/nonexistent-path.ddm"])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_emitted_module_main_block(tmp_path):
    """Regression: the emitted module must run standalone and print the
    program name (not a mangled format string)."""
    import subprocess
    import sys

    from repro.preprocessor import emit_module

    src = """
#pragma ddm startprogram name(standalone)
#pragma ddm var double x
#pragma ddm thread 1
  x = 2 + 3;
#pragma ddm endthread
#pragma ddm endprogram
"""
    mod = tmp_path / "gen.py"
    mod.write_text(emit_module(src))
    proc = subprocess.run(
        [sys.executable, str(mod)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "program standalone finished" in proc.stdout
