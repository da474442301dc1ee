"""Tests for the work-stealing TSU option (locality-relaxed dispatch)."""

import numpy as np
import pytest

from repro.core import ProgramBuilder
from repro.runtime.simdriver import SimulatedRuntime
from repro.sim.machine import BAGLE_27
from repro.tsu.group import FetchKind, TSUGroup
from repro.tsu.hardware import HardwareTSUAdapter


def skewed_program(nchunks=16, skew=2000):
    """Thread i costs (i+1)*skew: heavy imbalance under static placement."""
    b = ProgramBuilder("skewed")
    b.env.alloc("parts", nchunks)
    b.thread(
        "work",
        body=lambda env, i: env.array("parts").__setitem__(i, i + 1),
        contexts=nchunks,
        cost=lambda e, i: (i + 1) * skew,
    )
    return b.build()


def run(allow_stealing, nkernels=4):
    prog = skewed_program()
    rt = SimulatedRuntime(
        prog,
        BAGLE_27,
        nkernels=nkernels,
        adapter_factory=lambda e, t: HardwareTSUAdapter(e, t),
        allow_stealing=allow_stealing,
    )
    res = rt.run()
    return res, rt.tsu


def test_stealing_preserves_results():
    res, _ = run(True)
    np.testing.assert_array_equal(res.env.array("parts"), np.arange(1, 17))


def test_stealing_counts_steals():
    _, tsu = run(True)
    assert tsu.steals > 0


def test_no_stealing_by_default():
    _, tsu = run(False)
    assert tsu.steals == 0


def test_stealing_improves_skewed_makespan():
    """Static contiguous placement puts the heaviest chunk run on the last
    kernel; stealing lets idle kernels absorb the imbalance."""
    static, _ = run(False)
    stealing, _ = run(True)
    assert stealing.region_cycles < static.region_cycles * 0.95


def test_stealing_neutral_on_balanced_load():
    b1 = ProgramBuilder("bal1")
    b1.thread("w", body=lambda env, i: None, contexts=16, cost=lambda e, c: 5000)
    b2 = ProgramBuilder("bal2")
    b2.thread("w", body=lambda env, i: None, contexts=16, cost=lambda e, c: 5000)
    r_static = SimulatedRuntime(b1.build(), BAGLE_27, nkernels=4).run()
    r_steal = SimulatedRuntime(
        b2.build(), BAGLE_27, nkernels=4, allow_stealing=True
    ).run()
    assert r_steal.region_cycles == pytest.approx(r_static.region_cycles, rel=0.02)


def test_stealing_respects_dependencies():
    """Stolen threads still fire only when their producers completed."""
    b = ProgramBuilder("dep")
    b.env.alloc("a", 8)
    b.env.alloc("c", 8)
    t1 = b.thread(
        "p",
        body=lambda env, i: env.array("a").__setitem__(i, i + 1),
        contexts=8,
        cost=lambda e, i: (i + 1) * 1000,
    )
    t2 = b.thread(
        "q",
        body=lambda env, i: env.array("c").__setitem__(i, env.array("a")[i] * 2),
        contexts=8,
    )
    b.depends(t1, t2)
    res = SimulatedRuntime(
        b.build(), BAGLE_27, nkernels=3, allow_stealing=True
    ).run()
    np.testing.assert_array_equal(res.env.array("c"), (np.arange(8) + 1) * 2)


def test_has_work_sees_stealable_threads():
    prog = skewed_program(nchunks=4)
    tsu = TSUGroup(4, prog.blocks(), allow_stealing=True)
    f = tsu.fetch(0)
    assert f.kind == FetchKind.INLET
    tsu.complete_inlet(0)
    # All four chunks land one-per-kernel; kernel 0 sees its own and,
    # after draining it, everyone else's through stealing.
    assert tsu.has_work(0)
    tsu_nosteal = TSUGroup(4, skewed_program(nchunks=2).blocks())
    tsu_nosteal.fetch(0)
    tsu_nosteal.complete_inlet(0)
    # Kernel 3 owns nothing (2 chunks on 4 kernels, contiguous).
    assert not tsu_nosteal.has_work(3)


# -- chrome trace export ------------------------------------------------------
def test_chrome_trace_export():
    import json

    from repro.obs import Tracer, to_chrome_trace

    tracer = Tracer()
    prog = skewed_program(nchunks=8)
    SimulatedRuntime(
        prog, BAGLE_27, nkernels=2,
        adapter_factory=lambda e, t: HardwareTSUAdapter(e, t),
        tracer=tracer,
    ).run()
    doc = to_chrome_trace(tracer)
    text = json.dumps(doc)  # must be JSON-serialisable
    assert '"ph": "X"' in text
    xevents = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xevents) == len(tracer.spans)
    assert all(e["dur"] > 0 for e in xevents)


from hypothesis import given, settings, strategies as st


@settings(max_examples=10, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=12),
    nkernels=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=500),
)
def test_property_stealing_functionally_identical(width, nkernels, seed):
    """Stealing changes the schedule, never the results."""
    import numpy as np

    rng = np.random.default_rng(seed)
    costs = rng.integers(100, 10_000, size=width)

    def build():
        b = ProgramBuilder("rand")
        b.env.alloc("out", width)
        t1 = b.thread(
            "w",
            body=lambda env, i: env.array("out").__setitem__(i, i * 3.0),
            contexts=width,
            cost=lambda e, i: int(costs[i]),
        )
        t2 = b.thread(
            "r", body=lambda env, _: env.set("sum", float(env.array("out").sum()))
        )
        b.depends(t1, t2, "all")
        return b.build()

    results = []
    for steal in (False, True):
        res = SimulatedRuntime(
            build(), BAGLE_27, nkernels=nkernels, allow_stealing=steal
        ).run()
        results.append((res.env.get("sum"), tuple(res.env.array("out"))))
    assert results[0] == results[1]
