"""Native threaded runtime: TFluxSoft on the host OS.

This backend runs a DDM program on real OS threads, structured exactly
like TFluxSoft (paper §4.2): *n* Kernel threads execute DThreads; their
completion notifications flow through a real, lock-segmented
:class:`~repro.tsu.tub.ThreadUpdateBuffer`; a dedicated **TSU Emulator
thread** drains the TUB and performs the Post-Processing Phase against
the per-kernel Synchronization Memories via the Thread-to-Kernel Table.

Each Kernel thread drives the shared step machine
(:func:`repro.runtime.core.kernel_loop`) with
:func:`~repro.runtime.core.run_kernel_blocking`: :class:`NativeRuntime`
is the :class:`~repro.runtime.core.KernelBackend` whose time source is
``perf_counter`` microseconds and whose wait strategy is a
``threading.Condition`` — parking only after re-checking
``TSUGroup.has_work`` under the same mutex every ``notify_all`` holds,
the wake discipline documented in :mod:`repro.runtime.core`.  The step
machine runs each DThread body on the Kernel's own thread, outside that
mutex; this backend charges the elapsed wall time (``charge_thread``)
and pushes the outcome through the TUB (``complete``).  There is
no poll timeout: kernels sleep until a TSU transition (inlet/outlet
completion, emulator post-processing, error shutdown) notifies them.

It demonstrates the paper's user-level runtime claim — DDM execution on
an unmodified OS, interleaved with ordinary processes — and computes real
results.  A CPython caveat applies to *speedup*: the GIL serialises pure
Python DThread bodies, so wall-clock scaling is only visible for bodies
that release the GIL (NumPy kernels).  The cycle-accurate speedup
evaluation therefore lives on the simulated machines; this backend is the
functional/portability proof.

Telemetry follows the same :mod:`repro.obs` contract as the simulated
backends, with microseconds of wall time where they use cycles: each
kernel's :class:`~repro.obs.KernelAccount` splits its lifetime into
compute (DThread bodies), runtime (TSU/TUB protocol under the lock) and
idle (condition waits), and an attached probe receives one span per
DThread on a µs axis starting at 0.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.core.program import DDMProgram
from repro.obs import NULL_PROBE, Counters, KernelAccount, Probe
from repro.runtime.core import Fetch, blocking_step, run_kernel_blocking
from repro.runtime.stats import RunResult
from repro.tsu.group import TSUGroup
from repro.tsu.policy import PlacementPolicy, contiguous_placement
from repro.tsu.tub import ThreadUpdateBuffer

__all__ = ["NativeRuntime"]

#: The Thread Update Buffer's geometry: segments kernels try-lock in
#: turn (paper §4.2), and the completions each one holds.
TUB_SEGMENTS = 8
TUB_SEGMENT_CAPACITY = 256


class NativeRuntime:
    """Execute a DDM program on host threads with a software TSU.

    Implements the :class:`~repro.runtime.core.KernelBackend` protocol
    with blocking steps: every TSU transition happens under one mutex
    (``self._cond``); DThread bodies run outside it.
    """

    def __init__(
        self,
        program: DDMProgram,
        nkernels: int,
        tsu_capacity: Optional[int] = None,
        placement: PlacementPolicy = contiguous_placement,
        tracer: Optional[Probe] = None,
    ) -> None:
        if nkernels < 1:
            raise ValueError("need at least one kernel")
        self.program = program
        self.nkernels = nkernels
        self.blocks = program.blocks(tsu_capacity)
        self.tsu = TSUGroup(
            nkernels, self.blocks, placement=placement,
            root_graph=program.expanded(), tsu_capacity=tsu_capacity,
        )
        self.tub = ThreadUpdateBuffer(TUB_SEGMENTS, TUB_SEGMENT_CAPACITY)
        # One mutex guards TSU state transitions (fetch / inlet / outlet /
        # post-processing application); DThread bodies run outside it.
        self._cond = threading.Condition()
        self._errors: list[BaseException] = []
        self._accounts = [KernelAccount(k) for k in range(nkernels)]
        self.probe: Probe = tracer if tracer is not None else NULL_PROBE
        self._probe_lock = threading.Lock()
        self._t0 = 0.0
        # Emulator-side accounting (single writer: the emulator thread).
        self.emulator_batches = 0
        self.emulator_items = 0
        self.emulator_busy_us = 0.0

    def _now_us(self) -> float:
        """Microseconds since the run started (span/CoreStats axis)."""
        return (time.perf_counter() - self._t0) * 1e6

    # -- KernelBackend: time, charging, spans ---------------------------------
    @property
    def stop_requested(self) -> bool:
        # Cooperative shutdown: once any thread failed, every kernel
        # leaves its loop at the next iteration.
        return bool(self._errors)

    def now(self, kernel: int) -> float:
        return self._now_us()

    def charge_runtime(self, kernel: int, since: float) -> None:
        self._accounts[kernel].charge_runtime(self._now_us() - since)

    def emit_span(
        self, kernel: int, name: str, kind: str, start: float, end: float
    ) -> None:
        # Probe implementations are not required to be thread-safe; the
        # native backend serialises its span stream.
        with self._probe_lock:
            self.probe.record(kernel, name, kind, start, end)

    # -- KernelBackend: protocol steps (blocking, under the TSU mutex) --------
    @blocking_step
    def fetch(self, kernel: int) -> Fetch:
        with self._cond:
            return self.tsu.fetch(kernel)

    @blocking_step
    def wait(self, kernel: int) -> None:
        with self._cond:
            # Close the lost-wakeup window: a notify may have fired
            # between the WAIT fetch releasing the mutex and this
            # re-acquisition.  Every notify_all holds this mutex, so the
            # re-check and the park are atomic with respect to wakeups.
            if self._errors or self.tsu.has_work(kernel):
                return
            t0 = self._now_us()
            self._cond.wait()
            self._accounts[kernel].charge_idle(self._now_us() - t0)

    @blocking_step
    def run_inlet(self, kernel: int, fetch: Fetch) -> None:
        with self._cond:
            self.tsu.complete_inlet(kernel)
            self._cond.notify_all()

    @blocking_step
    def run_outlet(self, kernel: int, fetch: Fetch) -> None:
        with self._cond:
            self.tsu.complete_outlet(kernel)
            self._cond.notify_all()

    @blocking_step
    def charge_thread(self, kernel: int, fetch: Fetch, since: float) -> None:
        # kernel_loop ran the body with no TSU lock held; its wall time
        # is the compute charge.
        self._accounts[kernel].charge_compute(self._now_us() - since)

    @blocking_step
    def complete(self, kernel: int, fetch: Fetch, outcome: object) -> None:
        # Completion notification and the body's outcome ride one TUB
        # entry; the emulator thread performs the Post-Processing Phase
        # (applying the outcome) and notifies.
        assert fetch.local_iid is not None
        self.tub.push(
            (kernel, fetch.local_iid, outcome), preferred_segment=kernel
        )

    # -- kernel thread ---------------------------------------------------------
    def _kernel_main(self, k: int) -> None:
        try:
            run_kernel_blocking(self, k, self._accounts[k])
        except BaseException as exc:  # surface worker failures to run()
            self._errors.append(exc)
            with self._cond:
                self._cond.notify_all()

    # -- TSU emulator thread ----------------------------------------------------------
    def _emulator_main(self) -> None:
        tsu = self.tsu
        try:
            while True:
                items = self.tub.drain()
                if items:
                    t0 = self._now_us()
                    with self._cond:
                        for kernel, local_iid, outcome in items:
                            tsu.complete_thread(kernel, local_iid, outcome)
                        self._cond.notify_all()
                    self.emulator_busy_us += self._now_us() - t0
                    self.emulator_batches += 1
                    self.emulator_items += len(items)
                    continue
                if tsu.is_exited() or self._errors:
                    return
                time.sleep(0.0005)
        except BaseException as exc:
            self._errors.append(exc)
            with self._cond:
                self._cond.notify_all()

    # -- entry point --------------------------------------------------------------------
    def run(self) -> RunResult:
        self.program.mark_executed()
        env = self.program.env

        t_start = time.perf_counter()
        self._t0 = t_start
        for section in self.program.prologue:
            section.run(env)

        emulator = threading.Thread(
            target=self._emulator_main, name="tsu-emulator", daemon=True
        )
        kernels = [
            threading.Thread(target=self._kernel_main, args=(k,), name=f"kernel{k}")
            for k in range(self.nkernels)
        ]
        emulator.start()
        for t in kernels:
            t.start()
        for t in kernels:
            t.join()
        emulator.join(timeout=5.0)

        if self._errors:
            raise RuntimeError("DDM execution failed") from self._errors[0]
        if not self.tsu.is_exited():
            raise RuntimeError("kernels exited before the TSU reached EXIT")

        for section in self.program.epilogue:
            section.run(env)
        wall = time.perf_counter() - t_start

        counters = Counters()
        self.tsu.publish_counters(counters)
        self.tub.publish_counters(counters)
        emu = counters.scope("emulator")
        emu.inc("items", self.emulator_items)
        emu.inc("batches", self.emulator_batches)
        emu.inc("busy_us", int(self.emulator_busy_us))

        return RunResult(
            program=self.program.name,
            platform="native",
            nkernels=self.nkernels,
            cycles=0,
            env=env,
            kernels=[a.snapshot() for a in self._accounts],
            counters=counters,
            spans=list(self.probe.spans),
            wall_seconds=wall,
        )
