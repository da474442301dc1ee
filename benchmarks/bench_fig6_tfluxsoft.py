"""F6 — Figure 6: TFluxSoft (x86 native) speedups.

5 benchmarks × kernels ∈ {2,4,6} × problem sizes on the 8-core Xeon with
the software TSU emulator on a dedicated core.  The paper's observations
(§6.2.2): trends mirror TFluxHard; per-DThread overhead is higher, so
DThreads need to be coarser (unroll > 16); QSORT is non-monotone in size
at low kernel counts (init-core cache hand-off).
"""

import pytest

from benchmarks.conftest import report
from repro.analysis import FIGURE6, PAPER, render_grid

BENCHES = FIGURE6.benches
KERNELS = FIGURE6.kernel_counts


@pytest.fixture(scope="module")
def grid():
    return FIGURE6.sweep()


def test_figure6_table(grid):
    report(render_grid(grid, "Figure 6 — TFluxSoft (x86) native speedup (measured)"))


def test_six_kernel_values_in_band(grid):
    for bench, paper_value in FIGURE6.paper.items():
        got = grid.speedup(bench, 6, "large")
        assert 0.5 * paper_value < got < 1.5 * paper_value, (
            f"{bench}: measured {got:.2f} vs paper {paper_value}"
        )


def test_two_kernel_band(grid):
    # Upper slack 1.2: against the canonical unroll=1 baseline MMULT@2
    # is mildly superlinear (~2.3) from L1 aggregation — see the band's
    # note in repro/analysis/calibration.py.
    lo, hi = PAPER.fig6_two_kernel_band
    for bench in BENCHES:
        got = grid.speedup(bench, 2, "large")
        assert lo * 0.7 <= got <= hi * 1.2, f"{bench}@2: {got:.2f}"


def test_trends_match_tfluxhard(grid):
    """§6.2.2: 'It is easy to observe however, that the trends are the
    same' — the benchmark ordering carries over."""
    s = {b: grid.speedup(b, 6, "large") for b in BENCHES}
    assert s["trapez"] >= s["qsort"]
    assert s["susan"] >= s["qsort"]
    assert s["mmult"] >= s["qsort"] * 0.9


def test_scaling_with_kernels(grid):
    for bench in BENCHES:
        series = [grid.speedup(bench, nk, "large") for nk in KERNELS]
        assert series[-1] > series[0], f"{bench}: no scaling {series}"


# Note: the §6.2.2 unrolling claim ("TFluxSoft needs unroll > 16") is
# exercised by the A2 ablation (bench_ablation_unroll.py) on deliberately
# fine-grained threads.  At this figure's problem sizes a coarse unroll
# can leave fewer DThreads than kernels (FFT: 128 rows / 64 = 2 threads),
# so a figure-level "coarse is never worse" assertion would conflate
# overhead amortisation with parallelism starvation.


def test_average_near_paper(grid):
    avg = grid.average(6)
    # Paper headline: ~4.4x on 6 nodes (average of Soft and Cell).
    assert 3.0 < avg < 5.7, f"average {avg:.2f}"
