"""Tests for the native (real-threads) TFluxSoft-style runtime."""

import numpy as np
import pytest

from repro.core import ProgramBuilder
from repro.runtime.native import NativeRuntime
from repro.tsu.policy import round_robin_placement


def parallel_sum_program(nchunks=16):
    b = ProgramBuilder("psum")
    b.env.alloc("parts", nchunks)

    def work(env, i):
        env.array("parts")[i] = (i + 1) ** 2

    def total(env, _):
        env.set("total", float(env.array("parts").sum()))

    t1 = b.thread("work", body=work, contexts=nchunks)
    t2 = b.thread("total", body=total)
    b.depends(t1, t2, "all")
    return b.build()


def test_native_functional_result():
    res = NativeRuntime(parallel_sum_program(16), nkernels=3).run()
    assert res.env.get("total") == sum((i + 1) ** 2 for i in range(16))
    assert res.platform == "native"
    assert res.wall_seconds > 0


def test_native_single_kernel():
    res = NativeRuntime(parallel_sum_program(8), nkernels=1).run()
    assert res.env.get("total") == sum((i + 1) ** 2 for i in range(8))


def test_native_multi_block():
    res = NativeRuntime(parallel_sum_program(12), nkernels=4, tsu_capacity=5).run()
    assert res.env.get("total") == sum((i + 1) ** 2 for i in range(12))


def test_native_round_robin_placement():
    res = NativeRuntime(
        parallel_sum_program(12), nkernels=4, placement=round_robin_placement
    ).run()
    assert res.env.get("total") == sum((i + 1) ** 2 for i in range(12))


def test_native_tub_statistics():
    res = NativeRuntime(parallel_sum_program(16), nkernels=4).run()
    assert res.counters["tub.pushes"] == 17  # 16 workers + reduce
    assert res.counters["emulator.items"] == 17  # every push is drained
    assert res.counters["tsu.dispatched"] == 17


def test_native_per_kernel_utilisation_is_real():
    """The native backend accounts real wall time per kernel: the core
    stats must be populated (µs) and the busy share non-zero."""
    res = NativeRuntime(parallel_sum_program(32), nkernels=2).run()
    assert sum(k.dthreads for k in res.kernels) == 33
    busy = sum(
        k.core.compute_cycles + k.core.memory_cycles + k.core.runtime_cycles
        for k in res.kernels
    )
    assert busy > 0
    for k in res.kernels:
        assert k.core.dthreads_executed == k.dthreads
        assert k.core.idle_cycles >= 0


def test_native_dependency_ordering():
    """A three-stage pipeline must observe strict ordering per index."""
    n = 8
    b = ProgramBuilder("pipe")
    b.env.alloc("a", n)
    b.env.alloc("b", n)
    b.env.alloc("c", n)

    t1 = b.thread("s1", body=lambda env, i: env.array("a").__setitem__(i, i + 1), contexts=n)
    t2 = b.thread(
        "s2", body=lambda env, i: env.array("b").__setitem__(i, env.array("a")[i] * 2),
        contexts=n,
    )
    t3 = b.thread(
        "s3", body=lambda env, i: env.array("c").__setitem__(i, env.array("b")[i] + 1),
        contexts=n,
    )
    b.depends(t1, t2)
    b.depends(t2, t3)
    res = NativeRuntime(b.build(), nkernels=4).run()
    np.testing.assert_array_equal(res.env.array("c"), (np.arange(n) + 1) * 2 + 1)


def test_native_worker_exception_propagates():
    b = ProgramBuilder("boom")

    def bad(env, _):
        raise ValueError("kaboom")

    b.thread("bad", body=bad)
    with pytest.raises(RuntimeError, match="DDM execution failed"):
        NativeRuntime(b.build(), nkernels=2).run()


def test_native_single_use():
    rt = NativeRuntime(parallel_sum_program(4), nkernels=2)
    rt.run()
    with pytest.raises(RuntimeError):
        rt.run()


def test_native_many_kernels_small_program():
    """More kernels than DThreads must not deadlock."""
    res = NativeRuntime(parallel_sum_program(2), nkernels=8).run()
    assert res.env.get("total") == 1 + 4


def test_native_stress_many_threads():
    res = NativeRuntime(parallel_sum_program(200), nkernels=6).run()
    assert res.env.get("total") == sum((i + 1) ** 2 for i in range(200))
