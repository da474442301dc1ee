"""Race-check instrumentation is timing-neutral and backend-portable.

The functional/timing split means the recording wrapper may only touch
the functional side: all cycle numbers come from cost models over the
*declared* access summaries, which the wrapper evaluates on the raw
environment in the same order the simulated driver does.  These tests
pin that claim differentially — the same program simulated plain and
instrumented must agree cycle for cycle and byte for byte — across the
static, dynamic-spawn and conditional-squash program shapes of the
backend-differential suite, and on the native (OS-thread) backend where
attribution is per-thread.
"""

import sys

import numpy as np
import pytest

from repro.apps import get_benchmark
from repro.apps.common import ProblemSize
from repro.check import instrument
from repro.core import ProgramBuilder
from repro.core.dynamic import Subflow
from repro.runtime.native import NativeRuntime
from repro.runtime.simdriver import SimulatedRuntime
from repro.sim.accesses import AccessSummary
from repro.sim.machine import BAGLE_27

NKERNELS = 4


def build_trapez():
    size = ProblemSize("trapez", "S", "t", {"k": 12})
    return get_benchmark("trapez").build(size, unroll=8)


def build_dynspawn():
    """A data-driven spawn tree: subflow epochs + spawn edges."""
    nleaves = 8
    b = ProgramBuilder("dynspawn")
    b.env.alloc("leaves", nleaves)

    def make_node(lo, hi):
        def body(env, _ctx):
            if hi - lo == 1:
                env.array("leaves")[lo] = lo + 1
                return None
            mid = (lo + hi) // 2
            sf = Subflow(f"split[{lo}:{hi}]")
            sf.thread(f"node[{lo}:{mid}]", body=make_node(lo, mid))
            sf.thread(f"node[{mid}:{hi}]", body=make_node(mid, hi))
            return sf

        return body

    b.thread("node[root]", body=make_node(0, nleaves))
    b.epilogue(
        "sum", body=lambda env: env.set("total", float(env.array("leaves").sum()))
    )
    return b.build()


def build_dyncond():
    """A conditional diamond with a squashed chain: recorded runs must
    squash the very same instances."""
    b = ProgramBuilder("dyncond")
    b.env.alloc("out", 5)

    def w(slot, value):
        return lambda env, _ctx: env.array("out").__setitem__(slot, value)

    t_pick = b.thread("pick", body=lambda env, _ctx: 1)
    t_left = b.thread("left", body=w(0, 1))
    t_right = b.thread("right", body=w(1, 2))
    t_rdead = b.thread("rdead", body=w(2, 3))
    t_join = b.thread("join", body=w(3, 7))
    b.cond(t_pick, t_left, 1)
    b.cond(t_pick, t_right, 2)
    b.depends(t_right, t_rdead)
    b.depends(t_left, t_join)
    b.depends(t_right, t_join)
    return b.build()


BUILDERS = {
    "trapez": build_trapez,
    "dynspawn": build_dynspawn,
    "dyncond": build_dyncond,
}


def env_fingerprint(env):
    fp = {}
    for name in env.names():
        value = env[name]
        fp[name] = value.tobytes() if isinstance(value, np.ndarray) else value
    return fp


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_sim_cycles_identical_with_checking(name):
    builder = BUILDERS[name]
    plain = SimulatedRuntime(builder(), BAGLE_27, nkernels=NKERNELS).run()

    prog = builder()
    session = instrument(prog)
    checked = SimulatedRuntime(prog, BAGLE_27, nkernels=NKERNELS).run()

    assert checked.cycles == plain.cycles  # bit-identical timing
    assert env_fingerprint(checked.env) == env_fingerprint(plain.env)
    assert checked.total_dthreads == plain.total_dthreads
    report = session.report()
    assert report.ok, report.format()
    assert report.instances_recorded == checked.total_dthreads


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_native_backend_records_clean(name):
    """OS-thread execution: concurrent bodies must attribute their ops to
    the right instance (thread-local state), and recording must not
    perturb the functional output."""
    builder = BUILDERS[name]
    baseline = builder()
    baseline.run_sequential()

    prog = builder()
    session = instrument(prog)
    result = NativeRuntime(prog, nkernels=NKERNELS).run()

    assert env_fingerprint(result.env) == env_fingerprint(baseline.env)
    report = session.report()
    assert report.ok, report.format()
    assert report.instances_recorded == result.total_dthreads


def test_concurrent_recording_loses_no_row():
    """Bodies on more OS threads than cores, switching every microsecond,
    append to the session's one row list: every op and every interval
    must arrive, attributed to its own instance (a torn or misattributed
    row would show as an undeclared write on another instance's slot)."""
    n, writes = 64, 40
    b = ProgramBuilder("stress")
    b.env.alloc("slots", n * writes)
    region = b.env.region("slots")

    def body(env, i):
        slots = env.array("slots")
        for k in range(writes):
            slots[i * writes + k] = float(k)
        slots[i * writes : (i + 1) * writes : 2]  # one strided read: many intervals

    b.thread(
        "w",
        body=body,
        contexts=n,
        accesses=lambda env, i: AccessSummary().write(
            region, offset=i * writes * 8, count=writes
        ),
    )
    prog = b.build()
    session = instrument(prog)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        NativeRuntime(prog, nkernels=8).run()
    finally:
        sys.setswitchinterval(interval)
    report = session.report()
    assert report.ok, report.format()
    assert report.ops_recorded == n * (writes + 1)
    assert len(session._rows) == n * (writes + writes // 2)
