"""F5 — Figure 5: TFluxHard speedups.

5 benchmarks × kernels ∈ {2,4,8,16,27} × problem sizes on the Bagle CMP
with the hardware TSU.  Shape assertions follow the paper's §6.1.2
discussion: near-ideal scaling for TRAPEZ/SUSAN, MMULT slightly below
ideal (coherence misses), FFT below that (phase barriers), QSORT lowest
(serial merge tail), and speedup growing with problem size.
"""

import pytest

from benchmarks.conftest import report
from repro.analysis import FIGURE5, render_grid

BENCHES = FIGURE5.benches
KERNELS = FIGURE5.kernel_counts


@pytest.fixture(scope="module")
def grid():
    return FIGURE5.sweep()


def test_figure5_table(grid):
    report(render_grid(grid, "Figure 5 — TFluxHard speedup (measured)"))


def test_headline_average_near_21x(grid):
    avg = grid.average(27, "large")
    # Paper: "average speedup of 21x for the 27 nodes TFluxHard".
    assert 16.0 < avg < 26.0, f"average {avg:.1f} far from the paper's 21x"


def test_benchmark_ordering_matches_paper(grid):
    s = {b: grid.speedup(b, 27, "large") for b in BENCHES}
    # TRAPEZ/SUSAN near-ideal and above MMULT; FFT and QSORT trail.
    assert s["trapez"] > s["fft"] > s["qsort"]
    assert s["susan"] > s["fft"]
    assert s["mmult"] > s["qsort"]


def test_near_linear_scaling_for_scalable_codes(grid):
    for bench in ("trapez", "susan"):
        for nk in KERNELS:
            speedup = grid.speedup(bench, nk, "large")
            assert speedup > 0.75 * nk, (
                f"{bench} at {nk} kernels: {speedup:.2f} not near-linear"
            )


def test_speedup_grows_with_kernel_count(grid):
    for bench in BENCHES:
        series = [grid.speedup(bench, nk, "large") for nk in KERNELS]
        for a, b in zip(series, series[1:]):
            assert b > a * 0.95, f"{bench}: non-monotone series {series}"


def test_speedup_grows_with_problem_size(grid):
    """§6.1.2: 'for all cases the speedup increases for larger problem
    sizes' — parallelization overhead amortises."""
    for bench in BENCHES:
        small = grid.speedup(bench, 27, "small")
        large = grid.speedup(bench, 27, "large")
        assert large >= small * 0.95, (
            f"{bench}: large ({large:.2f}) not above small ({small:.2f})"
        )


def test_anchor_values_within_band(grid):
    """Each printed Figure-5 bar is reproduced within a 2x band (we match
    shape, not the authors' testbed)."""
    for bench, paper_value in FIGURE5.paper.items():
        got = grid.speedup(bench, 27, "large")
        assert 0.5 * paper_value < got < 2.0 * paper_value, (
            f"{bench}: measured {got:.1f} vs paper {paper_value}"
        )


def test_mmult_coherence_misses_present(grid):
    """§6.1.2: MMULT 'suffers from a large number of coherency misses'."""
    ev = grid.get("mmult", 27, "large")
    mem = ev.result.memory
    assert mem.coherence_misses > 1000
