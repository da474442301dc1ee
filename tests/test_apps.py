"""Correctness tests for the workload applications.

Every app is validated three ways: sequential reference execution,
simulated platform execution (zero-overhead adapter), and the native
threaded runtime — all must produce oracle-exact results.
"""

import numpy as np
import pytest

from repro.apps import BENCHMARKS, get_benchmark, problem_sizes
from repro.apps.common import chunk_bounds, nthreads_for
from repro.apps.qsort import _merge_runs
from repro.apps.susan import (
    BLOCK_ROWS, BRIGHTNESS_T, _smooth_rows, smooth_oracle, synthetic_image,
)
from repro.check import run_checked
from repro.check.recording import RecordingArray
from repro.runtime.native import NativeRuntime
from repro.platforms import TFluxHard
from repro.runtime.simdriver import SimulatedRuntime
from repro.sim.machine import BAGLE_27

ALL_BENCH = sorted(BENCHMARKS)


# -- helpers ------------------------------------------------------------------
def test_registry_has_all_benchmarks():
    # The paper's five workloads plus the beyond-paper dynamic-graph apps
    # (recursive quicksort and adaptive quadrature).
    assert ALL_BENCH == [
        "fft", "mmult", "qsort", "qsort_rec", "quad", "susan", "trapez"
    ]


def test_problem_size_grid_matches_table1():
    assert problem_sizes("trapez", "S")["large"].params == {"k": 23}
    assert problem_sizes("mmult", "S")["large"].params == {"n": 256}
    assert problem_sizes("mmult", "N")["large"].params == {"n": 1024}
    assert problem_sizes("qsort", "C")["large"].params == {"n": 12_000}
    assert problem_sizes("susan", "S")["medium"].params == {"w": 512, "h": 576}
    assert problem_sizes("fft", "S")["small"].params == {"n": 32}


def test_chunk_bounds_partition():
    pieces = [chunk_bounds(100, 7, i) for i in range(7)]
    assert pieces[0][0] == 0 and pieces[-1][1] == 100
    for (a, b), (c, d) in zip(pieces, pieces[1:]):
        assert b == c
    sizes = [b - a for a, b in pieces]
    assert max(sizes) - min(sizes) <= 1


def test_nthreads_for():
    assert nthreads_for(100, 1) == 100
    assert nthreads_for(100, 64) == 2
    assert nthreads_for(10, 100) == 1
    with pytest.raises(ValueError):
        nthreads_for(10, 0)


# -- small-size sequential correctness for every app -----------------------------
@pytest.mark.parametrize("name", ALL_BENCH)
def test_sequential_correctness(name):
    bench = get_benchmark(name)
    size = problem_sizes(name, "S")["small"]
    prog = bench.build(size, unroll=4)
    env = prog.run_sequential()
    bench.verify(env, size)


@pytest.mark.parametrize("name", ALL_BENCH)
def test_simulated_platform_correctness(name):
    bench = get_benchmark(name)
    size = problem_sizes(name, "S")["small"]
    prog = bench.build(size, unroll=8)
    res = SimulatedRuntime(prog, BAGLE_27, nkernels=4).run()
    bench.verify(res.env, size)
    assert res.cycles > 0


@pytest.mark.parametrize("name", ALL_BENCH)
def test_native_platform_correctness(name):
    bench = get_benchmark(name)
    size = problem_sizes(name, "S")["small"]
    prog = bench.build(size, unroll=16)
    res = NativeRuntime(prog, nkernels=3).run()
    bench.verify(res.env, size)


@pytest.mark.parametrize("name", ALL_BENCH)
@pytest.mark.parametrize("unroll", [1, 2, 64])
def test_unroll_preserves_results(name, unroll):
    bench = get_benchmark(name)
    size = problem_sizes(name, "S")["small"]
    prog = bench.build(size, unroll=unroll, max_threads=512)
    env = prog.run_sequential()
    bench.verify(env, size)


# -- app-specific details ----------------------------------------------------------
def test_trapez_partials_are_the_direct_formula():
    """The in-place chunk body computes each partial bit for bit as the
    trapezoid formula over ``f(x) = 4 / (1 + x * x)`` written out."""
    bench = get_benchmark("trapez")
    size = problem_sizes("trapez", "S")["small"]
    for unroll in (1, 3, 64):
        prog = bench.build(size, unroll=unroll)
        n = prog.env.get("n_intervals")
        nparts = len(prog.env.array("parts"))
        parts = prog.run_sequential().array("parts")
        h = 1.0 / n
        for i in range(nparts):
            lo, hi = chunk_bounds(n, nparts, i)
            x = 0.0 + h * np.arange(lo, hi + 1)
            y = 4.0 / (1.0 + x * x)
            assert parts[i] == h * (y.sum() - 0.5 * (y[0] + y[-1])), (unroll, i)


def test_trapez_partials_sum_to_integral():
    bench = get_benchmark("trapez")
    size = problem_sizes("trapez", "S")["small"]
    prog = bench.build(size, unroll=32)
    env = prog.run_sequential()
    assert abs(env.get("integral") - env.array("parts").sum()) < 1e-12


def test_mmult_thread_count_respects_unroll():
    bench = get_benchmark("mmult")
    size = problem_sizes("mmult", "S")["small"]  # n=64
    prog1 = bench.build(size, unroll=1)
    prog8 = bench.build(size, unroll=8)
    assert prog1.ninstances == 64
    assert prog8.ninstances == 8


def test_qsort_merge_runs_correct():
    rng = np.random.default_rng(7)
    runs = [np.sort(rng.integers(0, 1000, size=s)).astype(float) for s in (5, 17, 1, 8)]
    merged = _merge_runs(runs)
    expected = np.sort(np.concatenate(runs))
    np.testing.assert_array_equal(merged, expected)


def test_qsort_merge_single_run():
    a = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(_merge_runs([a]), a)


def _searchsorted_merge(runs):
    """The pairwise tree of two-way merges by ``searchsorted`` placement,
    each of a run pair's elements after its equals in the first run."""
    work = list(runs)
    while len(work) > 1:
        merged = []
        for a, b in zip(work[0::2], work[1::2]):
            out = np.empty(len(a) + len(b))
            at = np.searchsorted(a, b, side="right") + np.arange(len(b))
            out[at] = b
            mask = np.ones(len(out), dtype=bool)
            mask[at] = False
            out[mask] = a
            merged.append(out)
        if len(work) % 2:
            merged.append(work[-1])
        work = merged
    return work[0]


def test_qsort_merge_runs_edge_cases():
    a = np.array([1.0, 2.0, 2.0, 5.0])
    b = np.array([2.0, 3.0])
    c = np.array([-0.0] * 40 + [2.0, 9.0])
    z = np.zeros(40)
    empty = np.array([])
    # an empty run, ties across runs (the signed zeros tie too, and keep
    # their bits), and odd run counts: the last run waits a level unmerged
    for runs in ([a, empty, b], [empty, a, b, c, empty], [a, b, c], [c, z, c], [empty]):
        got = _merge_runs(runs)
        assert got.tobytes() == _searchsorted_merge(runs).tobytes(), runs
        np.testing.assert_array_equal(got, np.sort(np.concatenate(runs)))


def test_qsort_parts_multiple_of_groups():
    bench = get_benchmark("qsort")
    size = problem_sizes("qsort", "S")["small"]
    for unroll in (1, 3, 7, 64):
        prog = bench.build(size, unroll=unroll)
        sort_tmpl = prog.graph.template(1)
        assert sort_tmpl.ninstances % 4 == 0


def test_susan_oracle_matches_rowwise():
    # verify's exact check of the 8-bit output needs every row split to
    # give the oracle's bits
    img = synthetic_image(64, 48)
    whole = smooth_oracle(img)
    stitched = np.vstack([_smooth_rows(img, lo, min(lo + 7, 48)) for lo in range(0, 48, 7)])
    np.testing.assert_array_equal(stitched, whole)


def _direct_smooth(img):
    """The nine-neighbour sum of the ``_smooth_rows`` docstring, one whole
    neighbour image at a time: clamped coordinates, row-major (dy, dx)
    order from zero, weight ``exp(-((n - p) / T) ** 2)``."""
    h, w = img.shape
    rows, cols = np.arange(h), np.arange(w)
    num = np.zeros_like(img)
    den = np.zeros_like(img)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            nb = img[np.clip(rows + dy, 0, h - 1)][:, np.clip(cols + dx, 0, w - 1)]
            wgt = np.exp(-((nb - img) / BRIGHTNESS_T) ** 2)
            num += wgt * nb
            den += wgt
    return num / den


@pytest.mark.parametrize("w", [1, 2, 3, 17])
def test_susan_rows_bit_identical_to_direct_sum(w):
    img = synthetic_image(max(w, 8), 12)[:, :w] + np.random.default_rng(w).normal(0, 30, (12, w))
    direct = _direct_smooth(img)
    for lo in range(12):
        for hi in range(lo + 1, 13):
            np.testing.assert_array_equal(_smooth_rows(img, lo, hi), direct[lo:hi])


def test_susan_blocks_bit_identical_to_direct_sum():
    # taller than one block, so the call is split at BLOCK_ROWS
    img = synthetic_image(40, 2 * BLOCK_ROWS + 5)
    direct = _direct_smooth(img)
    np.testing.assert_array_equal(smooth_oracle(img), direct)
    np.testing.assert_array_equal(_smooth_rows(img, 3, 2 * BLOCK_ROWS + 1), direct[3:-4])


def test_susan_smoothing_preserves_flat_regions():
    img = np.full((16, 16), 100.0)
    np.testing.assert_allclose(smooth_oracle(img), img)


def test_susan_smoothing_reduces_noise_variance():
    rng = np.random.default_rng(3)
    img = 128 + rng.standard_normal((64, 64)) * 5
    sm = smooth_oracle(img)
    assert sm.var() < img.var()


@pytest.mark.parametrize("name", ALL_BENCH)
def test_checked_bodies_take_no_fancy_index_path(name, monkeypatch):
    """Under the race checker every app's bodies index env arrays by basic
    slices and integers.  A fancy index sends RecordingArray to its
    position-grid path: a grid as large as the array, and every selected
    element mapped through it."""
    grids = []
    record = RecordingArray._record_selection

    def spy(self, index, out, is_write):
        record(self, index, out, is_write)
        if self._posgrid is not None:
            grids.append((self._region, index))

    monkeypatch.setattr(RecordingArray, "_record_selection", spy)
    bench = get_benchmark(name)
    report = run_checked(bench.build(problem_sizes(name, "S")["small"], unroll=4))
    assert report.ok
    assert grids == []


def test_fft_matches_numpy_fft2():
    bench = get_benchmark("fft")
    size = problem_sizes("fft", "S")["small"]
    prog = bench.build(size, unroll=2)
    env = prog.run_sequential()
    bench.verify(env, size)


def test_fft_checksum_is_spectral_sum():
    bench = get_benchmark("fft")
    size = problem_sizes("fft", "S")["small"]
    env = bench.build(size, unroll=4).run_sequential()
    np.testing.assert_allclose(env.get("checksum"), env.array("X").sum(), rtol=1e-12)


# -- cost model sanity --------------------------------------------------------------
# quad is excluded: its problem size is a precision (eps) and all of its
# work past the root stage is spawned at run time, so the *statically*
# declared cost is size-independent by construction.  Its scaling lives
# in test_quad_dynamic_work_scales_with_precision below.
@pytest.mark.parametrize("name", [n for n in ALL_BENCH if n != "quad"])
def test_costs_scale_with_problem_size(name):
    """Total declared compute must grow with the problem size."""
    bench = get_benchmark(name)
    sizes = problem_sizes(name, "S")

    def total_cost(size):
        prog = bench.build(size, unroll=8)
        env = prog.env
        g = prog.expanded()
        total = sum(
            inst.template.compute_cost(env, inst.ctx) for inst in g.instances
        )
        total += sum(s.compute_cost(env) for s in prog.prologue)
        return total

    assert total_cost(sizes["small"]) < total_cost(sizes["medium"]) < total_cost(sizes["large"])


def test_quad_dynamic_work_scales_with_precision():
    """quad's work materializes at run time: a tighter tolerance must
    execute more DThreads, even though the static root graph is fixed."""
    bench = get_benchmark("quad")
    sizes = problem_sizes("quad", "S")

    def executed(size):
        prog = bench.build(size, unroll=8)
        res = TFluxHard().sequential_baseline(prog)
        bench.verify(res.env, size)
        return res.total_dthreads

    assert (
        executed(sizes["small"])
        < executed(sizes["medium"])
        < executed(sizes["large"])
    )


@pytest.mark.parametrize("name", ALL_BENCH)
def test_declared_accesses_stay_in_regions(name):
    """Every access summary must already satisfy region bounds (the
    AccessSummary constructor validates; building all of them is the test)."""
    bench = get_benchmark(name)
    size = problem_sizes(name, "S")["small"]
    prog = bench.build(size, unroll=4)
    env = prog.env
    for inst in prog.expanded().instances:
        summary = inst.template.access_summary(env, inst.ctx)
        for op in summary:
            assert op.region.name in env.regions._regions
