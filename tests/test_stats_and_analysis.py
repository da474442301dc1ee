"""Tests for result records (RunResult/KernelStats) and analysis types."""

import pytest

from repro.analysis.speedup import FigureGrid
from repro.core import Environment
from repro.platforms.base import Evaluation
from repro.runtime.stats import KernelStats, RunResult
from repro.sim.cpu import CoreStats


def make_result(cycles=1000, region=800, nkernels=2):
    kernels = []
    for k in range(nkernels):
        ks = KernelStats(k, dthreads=3)
        ks.core = CoreStats(compute_cycles=300, memory_cycles=100, idle_cycles=100)
        kernels.append(ks)
    return RunResult(
        program="p",
        platform="tfluxhard",
        nkernels=nkernels,
        cycles=cycles,
        region_cycles=region,
        env=Environment(),
        kernels=kernels,
    )


def test_measured_cycles_is_region_else_total():
    assert make_result(cycles=1000, region=800).measured_cycles == 800
    assert make_result(cycles=1000, region=0).measured_cycles == 1000


def test_total_dthreads_and_utilisation():
    res = make_result()
    assert res.total_dthreads == 6
    assert res.utilisation() == pytest.approx(0.8)


def test_utilisation_empty():
    res = make_result()
    res.kernels = []
    assert res.utilisation() == 0.0


# -- FigureGrid ---------------------------------------------------------------
def ev(bench, nk, size, speedup):
    return Evaluation(
        platform="tfluxhard",
        bench=bench,
        size_label=size,
        nkernels=nk,
        speedup=speedup,
        best_unroll=4,
        parallel_cycles=100,
        sequential_cycles=int(100 * speedup),
    )


def test_figure_grid_average():
    grid = FigureGrid("p", ["a", "b"], [2], ["large"])
    grid.cells[("a", 2, "large")] = ev("a", 2, "large", 2.0)
    grid.cells[("b", 2, "large")] = ev("b", 2, "large", 4.0)
    assert grid.average(2, "large") == 3.0


def test_figure_grid_average_skips_missing():
    grid = FigureGrid("p", ["a", "b"], [2], ["large"])
    grid.cells[("a", 2, "large")] = ev("a", 2, "large", 2.0)
    assert grid.average(2, "large") == 2.0


def test_figure_grid_average_empty():
    grid = FigureGrid("p", [], [2], ["large"])
    assert grid.average(2, "large") == 0.0


def test_evaluation_row_contains_key_facts():
    e = ev("qsort", 27, "large", 13.37)
    row = e.row()
    assert "qsort" in row and "13.37" in row and "27" in row
