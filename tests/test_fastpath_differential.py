"""Coalesced vs reference-mode (``eager_protocol()``) differential suite.

The event-coalesced fast path through the DES protocol stack — the MMI
ladder in ``sim/mmi.py``, the one coalesced protocol; every
``Resource.hold`` runs the same protocol in both modes — is a pure
event-count optimisation: it must never change *what* is simulated.
These tests pin the contract on every simulated platform:

* bit-identical total and region cycle counts;
* identical counters — excluding the ``engine.*`` namespace, the one
  scope that is *supposed* to change (dispatched/scheduled event counts
  and coalescing statistics);
* byte-identical functional output and identical span multisets;
* and the point of it all: the fast path dispatches strictly fewer
  engine events on protocol-bound runs, never more.

Fixed paper programs run first; a hypothesis strategy then feeds random
fork/join DAGs through the same check, so protocol interleavings no
benchmark happens to produce still keep the two schedules married.
"""

from collections import Counter as Multiset

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.apps import get_benchmark, problem_sizes
from repro.core import ProgramBuilder
from repro.core.dynamic import Subflow
from repro.net import FatTree
from repro.obs import Tracer
from repro.platforms.cellbe import TFluxCell
from repro.platforms.dist import TFluxDist
from repro.platforms.hard import TFluxHard
from repro.platforms.soft import TFluxSoft
from repro.runtime.simdriver import SimulatedRuntime
from repro.sim.engine import Engine, eager_protocol
from repro.tsu.multigroup import MultiGroupHardwareAdapter

NKERNELS = 4


def _platform(key):
    if key == "hard":
        p = TFluxHard()
        return p.machine, p.adapter_factory()
    if key == "soft":
        p = TFluxSoft()
        return p.machine, p.adapter_factory()
    if key == "cell":
        p = TFluxCell()
        return p.machine, p.adapter_factory()
    if key == "multigroup":
        p = TFluxHard()
        return p.machine, (
            lambda engine, tsu: MultiGroupHardwareAdapter(engine, tsu, n_groups=2)
        )
    # The network path: NIC and link occupancy are Resource.hold too.
    if key == "dist2":
        p = TFluxDist(nnodes=2)
        return p.machine, p.adapter_factory()
    if key == "hier":
        p = TFluxDist(nnodes=8, topology=FatTree(pod_size=4), cluster_size=4)
        return p.machine, p.adapter_factory()
    raise KeyError(key)


PLATFORMS = ("hard", "soft", "cell", "multigroup", "dist2", "hier")

#: Fewest kernels a platform can run on (one per TSU group / node).
_MIN_KERNELS = {"multigroup": 2, "dist2": 2, "hier": 8}


def _with_fastpath(enabled, fn):
    """Run *fn* on coalescing engines, or on reference-mode ones."""
    if enabled:
        return fn()
    with eager_protocol():
        return fn()


# -- program builders (fresh per run: programs are single-use) -----------------
def build_trapez(target):
    bench = get_benchmark("trapez")
    size = problem_sizes("trapez", target)["small"]
    return bench.build(size, unroll=8, max_threads=64), None


def build_blocked(target):
    """A three-stage pipeline wide enough to split into several blocks."""
    n = 12
    b = ProgramBuilder("blocked")
    b.env.alloc("a", n)
    b.env.alloc("b", n)
    b.env.alloc("c", n)
    t1 = b.thread(
        "s1", body=lambda env, i: env.array("a").__setitem__(i, i + 1), contexts=n
    )
    t2 = b.thread(
        "s2",
        body=lambda env, i: env.array("b").__setitem__(i, env.array("a")[i] * 2),
        contexts=n,
    )
    t3 = b.thread(
        "s3",
        body=lambda env, i: env.array("c").__setitem__(i, env.array("b")[i] + 1),
        contexts=n,
    )
    red = b.thread(
        "reduce", body=lambda env, _: env.set("total", float(env.array("c").sum()))
    )
    b.depends(t1, t2)
    b.depends(t2, t3)
    b.depends(t3, red, "all")
    return b.build(), 6


def build_dynamic(target):
    """Spawn tree + conditional tail: the dynamic resolve path must be
    coalescing-safe on every platform."""
    b = ProgramBuilder("dynamic")
    b.env.alloc("leaves", 8)
    b.env.alloc("out", 2)

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

    t_root = b.thread("node[root]", body=make_node(0, 8))
    t_pick = b.thread("pick", body=lambda env, _ctx: 2)
    t_a = b.thread("a", body=lambda env, _c: env.array("out").__setitem__(0, 1))
    t_b = b.thread("b", body=lambda env, _c: env.array("out").__setitem__(1, 2))
    b.depends(t_root, t_pick)
    b.cond(t_pick, t_a, 1)
    b.cond(t_pick, t_b, 2)
    return b.build(), None


PROGRAMS = {
    "trapez": build_trapez,
    "blocked": build_blocked,
    "dynamic": build_dynamic,
}

_TARGET = {
    "hard": "S", "soft": "N", "cell": "C", "multigroup": "S", "dist2": "N", "hier": "N",
}


def run_once(platform_key, program_key, fast, nkernels=NKERNELS):
    machine, factory = _platform(platform_key)
    nkernels = max(nkernels, _MIN_KERNELS.get(platform_key, 1))

    def go():
        prog, cap = PROGRAMS[program_key](_TARGET[platform_key])
        return SimulatedRuntime(
            prog,
            machine,
            nkernels=nkernels,
            adapter_factory=factory,
            tsu_capacity=cap,
            tracer=Tracer(),
        ).run()

    return _with_fastpath(fast, go)


# -- fingerprints --------------------------------------------------------------
def env_fingerprint(env):
    fp = {}
    for name in env.names():
        value = env[name]
        fp[name] = value.tobytes() if isinstance(value, np.ndarray) else value
    return fp


def nonengine_counters(result):
    return {
        k: v
        for k, v in result.counters.as_dict().items()
        if not k.startswith("engine.")
    }


def span_multiset(result):
    return Multiset((s.kind, s.name) for s in result.spans)


def assert_schedules_married(fast, slow):
    """The full fast-vs-eager contract for one (platform, program) pair."""
    assert fast.cycles == slow.cycles
    assert fast.region_cycles == slow.region_cycles
    assert nonengine_counters(fast) == nonengine_counters(slow)
    assert env_fingerprint(fast.env) == env_fingerprint(slow.env)
    assert span_multiset(fast) == span_multiset(slow)
    assert [(k.dthreads, k.fetches, k.waits) for k in fast.kernels] == [
        (k.dthreads, k.fetches, k.waits) for k in slow.kernels
    ]
    assert fast.counters["engine.events"] <= slow.counters["engine.events"]


# -- fixed paper programs ------------------------------------------------------
@pytest.mark.parametrize("platform_key", PLATFORMS)
@pytest.mark.parametrize("program_key", sorted(PROGRAMS))
def test_fastpath_bit_identical(platform_key, program_key):
    fast = run_once(platform_key, program_key, fast=True)
    slow = run_once(platform_key, program_key, fast=False)
    assert_schedules_married(fast, slow)


def test_fastpath_actually_coalesces():
    """On the protocol-bound hard platform the MMI ladder must save real
    events (not merely tie) and account for each collapsed ladder."""
    fast = run_once("hard", "trapez", fast=True)
    slow = run_once("hard", "trapez", fast=False)
    assert fast.counters["engine.events"] < slow.counters["engine.events"]
    assert (
        fast.counters["engine.coalesced_commands"]
        + fast.counters["engine.coalesced_queries"]
        > 0
    )
    assert slow.counters["engine.coalesced_commands"] == 0
    assert slow.counters["engine.coalesced_queries"] == 0
    # Contention disengages the ladder per op (the 4-kernel pair above
    # still saved events at equal cycles).  On one kernel nothing
    # contends, and each collapsed ladder saves exactly one event: the
    # bus hold's timeout, folded into the TSU processing timeout.
    assert fast.cycles == slow.cycles
    fast1 = run_once("hard", "trapez", fast=True, nkernels=1)
    slow1 = run_once("hard", "trapez", fast=False, nkernels=1)
    assert fast1.cycles == slow1.cycles
    assert (
        slow1.counters["engine.events"] - fast1.counters["engine.events"]
        == fast1.counters["engine.coalesced_commands"]
        + fast1.counters["engine.coalesced_queries"]
    )


def test_fastpath_default_is_on():
    assert Engine().coalesce
    with eager_protocol():
        assert not Engine().coalesce
    assert Engine().coalesce
    prog, _ = build_trapez("S")
    run = TFluxHard().execute(prog, nkernels=2)
    assert run.counters["engine.coalesced_queries"] > 0


# -- random DAGs ---------------------------------------------------------------
@st.composite
def dag_programs(draw):
    """A random fork/join pipeline: stage widths, dep kinds, capacity,
    and optionally a dynamically spawned last stage."""
    nstages = draw(st.integers(min_value=1, max_value=3))
    widths = [draw(st.integers(min_value=1, max_value=6)) for _ in range(nstages)]
    reduce_tail = draw(st.booleans())
    spawn = draw(st.booleans())
    cap = draw(st.sampled_from([None, 4, 8]))
    nkernels = draw(st.integers(min_value=1, max_value=4))
    return widths, reduce_tail, spawn, cap, nkernels


def build_dag(widths, reduce_tail, spawn=False):
    b = ProgramBuilder("dag")
    for j, w in enumerate(widths):
        b.env.alloc(f"a{j}", w)
    if spawn:
        b.env.alloc("sp", widths[-1])

    last_stage = len(widths) - 1

    def stage_body(j):
        def body(env, i):
            if j == 0:
                env.array("a0")[i] = float(i + 1)
            else:
                env.array(f"a{j}")[i] = float(env.array(f"a{j-1}").sum()) + i
            if spawn and j == last_stage:
                # Every instance of the last stage spawns one dynamic
                # worker — several subflows land in one block round.
                sf = Subflow(f"sp[{i}]")
                sf.thread(
                    f"sp[{i}]",
                    body=lambda env, _c, i=i: env.array("sp").__setitem__(
                        i, float(i + 100)
                    ),
                )
                return sf
            return None

        return body

    threads = []
    for j, w in enumerate(widths):
        t = b.thread(f"s{j}", body=stage_body(j), contexts=w)
        if threads:
            # Cross-stage widths differ in general: join on the whole
            # predecessor stage.
            b.depends(threads[-1], t, "all")
        threads.append(t)
    if reduce_tail:
        last = len(widths) - 1
        red = b.thread(
            "reduce",
            body=lambda env, _: env.set(
                "total", float(env.array(f"a{last}").sum())
            ),
        )
        b.depends(threads[-1], red, "all")
    return b.build()


@pytest.mark.parametrize("platform_key", PLATFORMS)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=dag_programs())
# Hypothesis's falsifying example for the pre-fix multigroup divergence
# (ROADMAP item 1): with 2 TSU groups and 3 kernels, an intergroup
# Ready-Count transfer landing in the coalescing window made one kernel's
# final EXIT fetch take an extra eager round (334 vs 340 cycles).  Pinned
# so the shared in-flight gate in sim/mmi.py can never regress silently.
@example(params=([1, 6], False, False, 4, 3))
# The spawning variant of the same shape: every last-stage instance
# ships a Subflow through the dynamic resolve path while the coalescing
# window is open.
@example(params=([1, 6], False, True, 4, 3))
# Falsifier for the lazy-release equality bug: two multigroup devices
# finish their TSU accesses on the same cycle a sibling kernel's bus
# hold expires; `Resource._expire_lazy` treating an exactly-at-now lazy
# deadline as already free let the coalesced reply jump same-cycle FIFO
# arbitration and steal the next ready fetch from the kernel the eager
# schedule gives it to (same cycles, swapped per-kernel waits).
@example(params=([3, 2], False, False, None, 4))
# Falsifiers for a hier same-cycle tie (8 kernels, no capacity): two
# ready_update messages reach link ("down", 4) in the same cycle, and
# same-cycle events run in heap-push order, so any zero-delay push one
# mode makes and the other does not (a grant hop for a free slot, say)
# flips that FIFO tie and a kernel wakes one NIC hold (125 cycles) later.
@example(params=([2, 6, 3], False, False, None, 1))
@example(params=([4, 6, 3], False, False, None, 1))
def test_fastpath_bit_identical_random_dags(platform_key, params):
    widths, reduce_tail, spawn, cap, nkernels = params
    machine, factory = _platform(platform_key)
    nkernels = max(nkernels, _MIN_KERNELS.get(platform_key, 1))

    def go():
        return SimulatedRuntime(
            build_dag(widths, reduce_tail, spawn),
            machine,
            nkernels=nkernels,
            adapter_factory=factory,
            tsu_capacity=cap,
            tracer=Tracer(),
        ).run()

    fast = _with_fastpath(True, go)
    slow = _with_fastpath(False, go)
    assert_schedules_married(fast, slow)
