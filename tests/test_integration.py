"""Cross-cutting integration tests: one program, every execution path.

The paper's core claim is virtualization — identical DDM programs run on
all platforms.  These tests push the same workloads through the
sequential oracle, the three simulated platforms, the native threaded
runtime, and the preprocessor pipeline, asserting bit-identical results.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import get_benchmark, problem_sizes
from repro.frontend import DDM
from repro.platforms import TFluxCell, TFluxHard, TFluxSoft
from repro.preprocessor import compile_to_program
from repro.runtime.native import NativeRuntime
from repro.tsu.policy import round_robin_placement

ALL_PLATFORMS = [TFluxHard, TFluxSoft, TFluxCell]


def stencil_ddm():
    """A 1-D heat-diffusion step chain: stages with halo dependencies."""
    n, steps = 64, 4
    ddm = DDM("heat")
    rng = np.random.default_rng(11)
    ddm.env.adopt("u0", rng.standard_normal(n))
    for s in range(1, steps + 1):
        ddm.env.alloc(f"u{s}", n)

    chunks = 8
    width = n // chunks
    prev_t = None
    for s in range(1, steps + 1):
        def body(env, i, s=s):
            src = env.array(f"u{s - 1}")
            dst = env.array(f"u{s}")
            lo, hi = i * width, (i + 1) * width
            for j in range(lo, hi):
                left = src[max(j - 1, 0)]
                right = src[min(j + 1, n - 1)]
                dst[j] = 0.25 * left + 0.5 * src[j] + 0.25 * right

        def halo(c):
            return [x for x in (c - 1, c, c + 1) if 0 <= x < chunks]

        deps = [] if prev_t is None else [(prev_t, halo)]
        prev_t = ddm.thread(contexts=chunks, depends=deps)(body)
    return ddm.build()


def heat_oracle():
    n, steps = 64, 4
    rng = np.random.default_rng(11)
    u = rng.standard_normal(n)
    for _ in range(steps):
        nxt = np.empty_like(u)
        for j in range(n):
            left = u[max(j - 1, 0)]
            right = u[min(j + 1, n - 1)]
            nxt[j] = 0.25 * left + 0.5 * u[j] + 0.25 * right
        u = nxt
    return u


def test_heat_sequential_matches_oracle():
    env = stencil_ddm().run_sequential()
    np.testing.assert_allclose(env.array("u4"), heat_oracle(), rtol=1e-12)


@pytest.mark.parametrize("platform_cls", ALL_PLATFORMS)
def test_heat_on_every_platform(platform_cls):
    platform = platform_cls()
    res = platform.execute(stencil_ddm(), nkernels=min(4, platform.max_kernels))
    np.testing.assert_allclose(res.env.array("u4"), heat_oracle(), rtol=1e-12)


def test_heat_native():
    res = NativeRuntime(stencil_ddm(), nkernels=4).run()
    np.testing.assert_allclose(res.env.array("u4"), heat_oracle(), rtol=1e-12)


def test_heat_multiblock_everywhere():
    for platform_cls in ALL_PLATFORMS:
        platform = platform_cls()
        res = platform.execute(stencil_ddm(), nkernels=3, tsu_capacity=10)
        np.testing.assert_allclose(res.env.array("u4"), heat_oracle(), rtol=1e-12)


@pytest.mark.parametrize("name", ["trapez", "qsort", "fft"])
def test_apps_identical_across_platforms(name):
    """The same benchmark produces byte-identical shared arrays on every
    platform (deterministic bodies)."""
    bench = get_benchmark(name)
    results = []
    for platform_cls in ALL_PLATFORMS:
        platform = platform_cls()
        size = problem_sizes(name, platform.target)["small"]
        prog = bench.build(size, unroll=16, max_threads=128)
        res = platform.execute(prog, nkernels=3)
        bench.verify(res.env, size)
        results.append(res)


def test_preprocessed_program_everywhere():
    src = """
#pragma ddm startprogram name(everywhere)
#pragma ddm var double acc[6]
#pragma ddm var double out
#pragma ddm thread 1 context(6)
  acc[CTX] = CTX * 1.5;
#pragma ddm endthread
#pragma ddm thread 2 depends(1 all)
  int i;
  out = 0;
  for (i = 0; i < 6; i++) out = out + acc[i];
#pragma ddm endthread
#pragma ddm endprogram
"""
    expected = sum(i * 1.5 for i in range(6))
    for platform_cls in ALL_PLATFORMS:
        platform = platform_cls()
        res = platform.execute(compile_to_program(src), nkernels=2)
        assert res.env.get("out") == expected
    res = NativeRuntime(compile_to_program(src), nkernels=2).run()
    assert res.env.get("out") == expected


@settings(max_examples=10, deadline=None)
@given(
    nchunks=st.integers(min_value=1, max_value=24),
    nkernels=st.integers(min_value=1, max_value=8),
    cap=st.integers(min_value=3, max_value=30),
    rr=st.booleans(),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_random_reduction_everywhere(nchunks, nkernels, cap, rr, seed):
    """Random (fan-out, reduce) programs give the oracle result on the
    simulated platform for arbitrary kernel counts, block capacities, and
    placements."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(nchunks)

    def build():
        ddm = DDM("rand")
        ddm.env.adopt("vals", values.copy())
        ddm.env.alloc("parts", nchunks)

        @ddm.thread(contexts=nchunks)
        def work(env, i):
            env.array("parts")[i] = env.array("vals")[i] * 2.0

        @ddm.thread(depends=[(work, "all")])
        def reduce(env, _):
            env.set("total", float(env.array("parts").sum()))

        return ddm.build()

    from repro.runtime.simdriver import SimulatedRuntime
    from repro.sim.machine import BAGLE_27
    from repro.tsu.policy import contiguous_placement

    placement = round_robin_placement if rr else contiguous_placement
    res = SimulatedRuntime(
        build(), BAGLE_27, nkernels=nkernels, tsu_capacity=cap,
        placement=placement,
    ).run()
    assert res.env.get("total") == pytest.approx(values.sum() * 2.0)


def test_native_matches_simulated_on_qsort():
    bench = get_benchmark("qsort")
    size = problem_sizes("qsort", "S")["small"]
    sim = TFluxHard().execute(bench.build(size, unroll=16, max_threads=64), nkernels=4)
    nat = NativeRuntime(bench.build(size, unroll=16, max_threads=64), nkernels=4).run()
    np.testing.assert_array_equal(sim.env.array("data"), nat.env.array("data"))
