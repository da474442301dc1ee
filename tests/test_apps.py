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
from repro.apps.susan import smooth_oracle, synthetic_image
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


def test_qsort_parts_multiple_of_groups():
    bench = get_benchmark("qsort")
    size = problem_sizes("qsort", "S")["small"]
    for unroll in (1, 3, 7, 64):
        prog = bench.build(size, unroll=unroll)
        sort_tmpl = prog.graph.template(1)
        assert sort_tmpl.ninstances % 4 == 0


def test_susan_oracle_matches_rowwise():
    img = synthetic_image(64, 48)
    from repro.apps.susan import _smooth_rows

    whole = smooth_oracle(img)
    stitched = np.vstack([_smooth_rows(img, lo, min(lo + 7, 48)) for lo in range(0, 48, 7)])
    np.testing.assert_allclose(stitched, whole, rtol=1e-12)


def test_susan_smoothing_preserves_flat_regions():
    img = np.full((16, 16), 100.0)
    np.testing.assert_allclose(smooth_oracle(img), img)


def test_susan_smoothing_reduces_noise_variance():
    rng = np.random.default_rng(3)
    img = 128 + rng.standard_normal((64, 64)) * 5
    sm = smooth_oracle(img)
    assert sm.var() < img.var()


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
