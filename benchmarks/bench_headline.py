"""N1 — the paper's headline numbers (§1/§8).

"The experimental results show that the performance achieved is close to
linear speedup, on average 21x for the 27 nodes TFluxHard, and 4.4x on a
6 nodes TFluxSoft and TFluxCell.  Most importantly, the observed speedup
is stable across the different platforms."
"""

import pytest

from benchmarks.conftest import report
from repro.analysis import FIGURE5, FIGURE6, FIGURE7


def _headline_cells(figure):
    """The figure's top kernel count at the large input."""
    return figure.sweep(kernel_counts=figure.kernel_counts[-1:], sizes=("large",))


@pytest.fixture(scope="module")
def hard():
    # Figure 5's own 21x average is asserted once, in
    # bench_fig5_tfluxhard.py; here it is printed beside the other two.
    return _headline_cells(FIGURE5)


@pytest.fixture(scope="module")
def soft():
    return _headline_cells(FIGURE6)


@pytest.fixture(scope="module")
def cell():
    return _headline_cells(FIGURE7)


def test_headline_table(hard, soft, cell):
    lines = [
        "N1 — headline averages (large inputs)",
        f"{'platform':<11} {'nodes':>5} {'measured':>9} {'paper':>7}",
        f"{'tfluxhard':<11} {27:>5} {hard.average(27):>9.2f} {21.0:>7}",
        f"{'tfluxsoft':<11} {6:>5} {soft.average(6):>9.2f} {'~4.4':>7}",
        f"{'tfluxcell':<11} {6:>5} {cell.average(6):>9.2f} {'~4.4':>7}",
    ]
    report("\n".join(lines))


def test_software_platforms_average_near_4_4(soft, cell):
    combined = (soft.average(6) + cell.average(6)) / 2
    assert 3.5 < combined < 6.0, f"{combined:.2f}"


def test_stability_across_platforms(soft, cell):
    """'the observed speedup is stable across the different platforms':
    per-benchmark 6-node speedups of the two software platforms agree
    within a factor."""
    for bench in cell.benches:
        s = soft.speedup(bench, 6, "large")
        c = cell.speedup(bench, 6, "large")
        assert 0.55 < s / c < 1.8, f"{bench}: soft {s:.2f} vs cell {c:.2f}"
