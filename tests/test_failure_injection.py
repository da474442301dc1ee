"""Failure-injection tests: the runtime must fail loudly, not hang.

DDM runtimes are concurrency machinery; the failure modes that matter
are silent deadlocks, lost completions, and resource exhaustion.  These
tests inject each fault and assert a diagnostic error (or correct
recovery) within bounded time.
"""

import threading
import time

import pytest

from repro.core import ProgramBuilder
from repro.runtime.native import NativeRuntime
from repro.runtime.simdriver import SimulatedRuntime
from repro.sim.machine import BAGLE_27
from repro.tsu.group import FetchKind, TSUGroup
from repro.tsu.software import SoftTSUCosts, SoftwareTSUAdapter
from repro.tsu import tub as tub_module
from repro.tsu.tub import ThreadUpdateBuffer, TUBFullError


def simple_program(n=6):
    b = ProgramBuilder("p")
    b.env.alloc("parts", n)
    t1 = b.thread(
        "w", body=lambda env, i: env.array("parts").__setitem__(i, i), contexts=n
    )
    t2 = b.thread("r", body=lambda env, _: env.set("done", True))
    b.depends(t1, t2, "all")
    return b.build()


# -- lost completion -----------------------------------------------------------
def test_lost_completion_detected_as_stall():
    """An adapter that drops a completion leaves the DES with waiting
    kernels and an un-exited TSU -> the driver reports a stall."""

    class DroppyAdapter(SoftwareTSUAdapter):
        dropped = False

        def complete_thread(self, kernel, local_iid, instance, outcome=None):
            if not DroppyAdapter.dropped:
                DroppyAdapter.dropped = True
                yield 1  # swallow the completion entirely
                return
            yield from super().complete_thread(
                kernel, local_iid, instance, outcome
            )

    rt = SimulatedRuntime(
        simple_program(),
        BAGLE_27,
        nkernels=2,
        adapter_factory=lambda e, t: DroppyAdapter(e, t),
    )
    with pytest.raises(RuntimeError, match="stalled"):
        rt.run()


# -- double completion ------------------------------------------------------------
def test_double_completion_rejected():
    prog = simple_program(2)
    tsu = TSUGroup(1, prog.blocks())
    f = tsu.fetch(0)
    assert f.kind == FetchKind.INLET
    tsu.complete_inlet(0)
    f = tsu.fetch(0)
    assert f.kind == FetchKind.THREAD
    tsu.complete_thread(0, f.local_iid)
    with pytest.raises(RuntimeError):
        tsu.complete_thread(0, f.local_iid)


# -- TUB exhaustion -----------------------------------------------------------------
def test_tub_spinout_is_diagnosed(monkeypatch):
    monkeypatch.setattr(tub_module, "MAX_SPINS", 5)
    tub = ThreadUpdateBuffer(nsegments=1, segment_capacity=1)
    tub.push("a")
    with pytest.raises(TUBFullError, match="spun out"):
        tub.push("b")


def test_tub_contention_under_threads():
    """Hammer the TUB from several threads while a drainer runs: no item
    is lost or duplicated."""
    tub = ThreadUpdateBuffer(nsegments=4, segment_capacity=8)
    n_producers, per_producer = 4, 200
    drained: list = []
    stop = threading.Event()

    def producer(tag):
        for i in range(per_producer):
            tub.push((tag, i), preferred_segment=tag)

    def drainer():
        while not stop.is_set() or len(tub):
            drained.extend(tub.drain())
            time.sleep(0.0002)

    threads = [threading.Thread(target=producer, args=(t,)) for t in range(n_producers)]
    d = threading.Thread(target=drainer)
    d.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    d.join(timeout=5)
    assert sorted(drained) == sorted(
        (t, i) for t in range(n_producers) for i in range(per_producer)
    )


# -- native runtime fault paths ---------------------------------------------------------
def test_native_body_exception_does_not_hang():
    b = ProgramBuilder("boom")
    b.thread("ok", body=lambda env, _: None, contexts=3)
    t_bad = b.thread("bad", body=lambda env, _: 1 / 0)
    prog = b.build()
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="failed"):
        NativeRuntime(prog, nkernels=3).run()
    assert time.perf_counter() - t0 < 10


def test_native_emulator_death_surfaces():
    """If the TSU emulator thread dies, kernels must not spin forever."""

    class BrokenTUB(ThreadUpdateBuffer):
        def drain(self):
            raise RuntimeError("emulator hardware fault")

    rt = NativeRuntime(simple_program(), nkernels=2)
    rt.tub = BrokenTUB(2, 16)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError):
        rt.run()
    assert time.perf_counter() - t0 < 10


# -- corrupted metadata ----------------------------------------------------------------
def test_ready_count_underflow_diagnosed():
    prog = simple_program(2)
    tsu = TSUGroup(1, prog.blocks())
    tsu.fetch(0)
    tsu.complete_inlet(0)
    # Corrupt: pre-decrement the reducer's ready count below reality.
    reducer_local = next(
        i for i, inst in enumerate(tsu.current_block.instances)
        if inst.template.name == "r"
    )
    sm = tsu.sms[tsu.tkt.kernel_of(reducer_local)]
    sm.decrement(reducer_local)
    sm.decrement(reducer_local)
    with pytest.raises(RuntimeError, match="underflow"):
        sm.decrement(reducer_local)
