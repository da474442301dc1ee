"""Protocol adapter interface: how much each TSU operation *costs*.

The :class:`~repro.tsu.group.TSUGroup` defines what the TSU does; adapters
define what its operations cost on a given platform and through which
shared resources they flow.  The simulated runtime driver
(:mod:`repro.runtime.simdriver`) calls adapters as DES process fragments
(``yield from``), so contention — at the hardware TSU's command port, at
the TUB segments, at the Cell mailboxes — is modelled by the event engine,
not by constants.

This interface is the sim backend's half of the Kernel step-machine
contract: the driver's :class:`~repro.runtime.core.KernelBackend` steps
map one-to-one onto adapter generators (``fetch`` → :meth:`fetch`,
``run_inlet``/``run_outlet`` → :meth:`complete_inlet`/:meth:`complete_outlet`,
``complete`` → :meth:`resolve_dynamic` for a dynamic outcome, then
:meth:`complete_thread`).  Adapters therefore
carry the wake side of the discipline documented in
:mod:`repro.runtime.core`: any transition that can ready work must call
:attr:`ProtocolAdapter.wake_kernels` at the simulated time it applies.

The adapter's lifecycle is part of the interface too: the driver calls
``attach_memory`` (once its memory system exists) → ``start`` (when the
dataflow region opens) → ``shutdown`` (after every Kernel exited) on
every adapter and reads its ``nnodes`` / ``topology`` for the run record
— no-ops and single-chip defaults on :class:`ProtocolAdapter`,
overridden by the platforms that run emulator processes or span nodes.
The driver never probes an adapter for optional methods.

:class:`ZeroOverheadAdapter` makes every operation free; it is used for
the sequential-baseline runs ("the baseline program is the original
sequential one, i.e. without any TFlux overheads", §5) and in tests that
check pure scheduling behaviour.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.block import DDMBlock
from repro.core.dthread import DThreadInstance
from repro.sim.accesses import AccessSummary
from repro.sim.engine import Engine
from repro.tsu.group import Fetch, TSUGroup

__all__ = ["ProtocolAdapter", "ZeroOverheadAdapter"]


class ProtocolAdapter:
    """Base class; subclasses override the cost-bearing generators.

    Every method is a generator (DES process fragment).  The functional
    TSU transition must happen inside the generator at the simulated time
    the platform would apply it (e.g. the software TSU applies
    post-processing only when the emulator drains the TUB).

    The lifecycle hooks (:meth:`attach_memory`, :meth:`start`,
    :meth:`shutdown`) do nothing here; a platform with background
    processes or its own data plane overrides them.
    """

    #: Message-passing nodes the adapter spans, and their wiring — what
    #: the driver writes into ``RunRecord.nnodes`` / ``.topology``.
    nnodes = 1
    topology = ""

    def __init__(self, engine: Engine, tsu: TSUGroup) -> None:
        self.engine = engine
        self.tsu = tsu
        #: Set by the driver: wake_kernels(kernel_ids or None for all).
        self.wake_kernels = lambda kernels=None: None

    # -- lifecycle -------------------------------------------------------------
    def attach_memory(self, memsys, line_size: int, regions) -> None:
        """The driver's memory system, for adapters that price data movement."""

    def start(self) -> None:
        """Launch the platform's background processes (TSU emulators)."""

    def shutdown(self) -> None:
        """Let those processes drain and exit."""

    # -- queries ------------------------------------------------------------
    def fetch(self, kernel: int) -> Generator:
        """Ask the TSU for the next DThread; returns a Fetch."""
        yield 0
        return self.tsu.fetch(kernel)

    # -- completions -----------------------------------------------------------
    def complete_inlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield 0
        self.tsu.complete_inlet(kernel)
        self.wake_kernels()

    def resolve_dynamic(
        self, kernel: int, local_iid: int, outcome: object
    ) -> Generator:
        """Price shipping a dynamic outcome (branch key / spawned
        Subflow) to the TSU.  Costs only — the functional application
        happens inside :meth:`complete_thread` at the platform's
        post-processing instant.  *outcome* is ``None`` for static
        threads; the base adapter (and any platform without a priced
        transport) ships for free, keeping static programs bit-identical.
        """
        yield 0

    def complete_thread(
        self,
        kernel: int,
        local_iid: int,
        instance: DThreadInstance,
        outcome: object,
    ) -> Generator:
        yield 0
        self._apply_thread_completion(kernel, local_iid, outcome)

    def complete_outlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield 0
        self.tsu.complete_outlet(kernel)
        self.wake_kernels()

    # -- counters ----------------------------------------------------------------
    def publish_counters(self, counters) -> None:
        """Dump this adapter's counters into the shared registry.

        Called once at end of run by the driver.  Adapters keep plain
        integer attributes on the hot path and publish them here under a
        dotted namespace (``mmi.*``, ``emulator.*``, ``dma.*``, ...); the
        base adapter has nothing to report.
        """

    # -- optional memory-pricing hook ------------------------------------------
    def thread_memory_cycles(
        self, kernel: int, instance: DThreadInstance, summary: AccessSummary
    ) -> Optional[int]:
        """Platform-specific pricing of a DThread's memory behaviour.

        Return ``None`` to let the driver use the machine's coherent cache
        model; the Cell adapter overrides this with DMA/Local-Store
        accounting.
        """
        return None

    # -- shared helper -----------------------------------------------------------
    def _apply_thread_completion(
        self, kernel: int, local_iid: int, outcome: object = None
    ) -> None:
        """Run post-processing functionally and wake affected kernels."""
        newly_ready = self.tsu.complete_thread(kernel, local_iid, outcome)
        if self.tsu.block_drained:
            self.wake_kernels()
        elif newly_ready:
            if self.tsu.allow_stealing:
                # Any waiting kernel may steal the new work.
                self.wake_kernels()
            else:
                assert self.tsu.tkt is not None
                kernels = {self.tsu.tkt.kernel_of(c) for c in newly_ready}
                self.wake_kernels(kernels)


class ZeroOverheadAdapter(ProtocolAdapter):
    """All TSU operations are free and instantaneous."""
