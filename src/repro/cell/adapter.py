"""TFluxCell protocol adapter: SPE kernels, PPE TSU Emulator.

The control flow of paper §4.3:

* "Whenever a DThread needs to notify its TSU of any event, it places a
  command into its corresponding CommandBuffer" — completions and
  next-thread requests are :class:`~repro.cell.commandbuffer.Command`
  records written (small DMA) into the SPE's 128-byte buffer;
* "The TSU Emulator ... is in a loop checking the CommandBuffers of all
  Kernels and updates the internal status of each TSU based on these
  commands" — a DES process that round-robins over the buffers, paying a
  poll cost per buffer and a processing cost per command;
* "the Kernel waits on a mailbox for the information about the next
  DThread to be executed, which is sent by the TSU Emulator" — fetches
  therefore *block on the SPE side*: the emulator parks requests that
  cannot be satisfied yet and answers them (mailbox latency included) as
  soon as post-processing makes work available.  The adapter consequently
  never returns WAIT to the driver: the Kernel step machine's ``wait``
  step (and the wake discipline of :mod:`repro.runtime.core`) is unused
  on this platform — blocking lives inside the mailbox, not the loop.
* DThread data moves by DMA between the SharedVariableBuffer and the
  Local Store; :meth:`CellTSUAdapter.thread_memory_cycles` prices those
  transfers and enforces the 256 KB Local Store capacity — the constraint
  that forced the paper's smaller Cell problem sizes for QSORT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.cell.commandbuffer import Command, CommandBuffer, SharedVariableBuffer
from repro.cell.dma import DMAEngine
from repro.core.dynamic import Subflow
from repro.cell.localstore import LocalStore
from repro.cell.mailbox import Mailbox
from repro.core.block import DDMBlock
from repro.core.dthread import DThreadInstance
from repro.sim.accesses import AccessSummary
from repro.sim.engine import Engine, Event
from repro.sim.machine import CellParams
from repro.tsu.base import ProtocolAdapter
from repro.tsu.group import FetchKind, TSUGroup

__all__ = ["CellCosts", "CellTSUAdapter"]


@dataclass(frozen=True)
class CellCosts:
    """Cycle costs of the TFluxCell protocol (3.2 GHz PS3 magnitudes)."""

    command_write_cycles: int = 250  # small DMA into the CommandBuffer
    command_retry_cycles: int = 300  # buffer full: back off and retry
    ppe_poll_cycles: int = 200  # emulator checks one CommandBuffer
    ppe_per_command: int = 400  # decode + TSU state machine step
    ppe_per_update: int = 200  # one consumer Ready-Count decrement
    mailbox_latency: int = 400  # PPE write -> SPE mailbox visible
    inlet_per_entry: int = 150  # metadata load per DThread entry
    outlet_cycles: int = 800


class CellTSUAdapter(ProtocolAdapter):
    """The Cell/BE implementation of the TSU protocol."""

    def __init__(
        self,
        engine: Engine,
        tsu: TSUGroup,
        params: Optional[CellParams] = None,
        costs: CellCosts = CellCosts(),
    ) -> None:
        super().__init__(engine, tsu)
        params = params or CellParams()
        self.params = params
        self.costs = costs
        n = tsu.nkernels
        if n > params.n_spes:
            raise ValueError(
                f"{n} kernels exceed the {params.n_spes} available SPEs"
            )
        self.command_buffers = [
            CommandBuffer(params.command_buffer_bytes) for _ in range(n)
        ]
        self.mailboxes = [
            Mailbox(engine, latency=costs.mailbox_latency) for _ in range(n)
        ]
        self.dma = [
            DMAEngine(
                setup_cycles=params.dma_setup_cycles,
                cycles_per_line=params.dma_cycles_per_line,
                line_size=params.dma_line_size,
            )
            for _ in range(n)
        ]
        self.local_stores = [
            LocalStore(capacity=params.local_store_bytes) for _ in range(n)
        ]
        self.shared_buffer = SharedVariableBuffer()
        self._parked_fetch: set[int] = set()
        self._ppe_wake: Optional[Event] = None
        self._ppe_started = False
        self._shutdown = False
        # Statistics (plain ints on the hot path; see publish_counters).
        self.ppe_busy_cycles = 0
        self.ppe_commands = 0
        self.ppe_polls = 0

    def publish_counters(self, counters) -> None:
        ppe = counters.scope("ppe")
        ppe.inc("busy_cycles", self.ppe_busy_cycles)
        ppe.inc("commands", self.ppe_commands)
        ppe.inc("polls", self.ppe_polls)
        cmdbuf = counters.scope("cmdbuf")
        cmdbuf.inc("writes", sum(cb.writes for cb in self.command_buffers))
        cmdbuf.inc("stalls", sum(cb.stalls for cb in self.command_buffers))
        dma = counters.scope("dma")
        dma.inc("bytes_imported", self.shared_buffer.bytes_imported)
        dma.inc("bytes_exported", self.shared_buffer.bytes_exported)
        dma.inc("imports", self.shared_buffer.imports)
        dma.inc("exports", self.shared_buffer.exports)

    # -- PPE emulator lifecycle ----------------------------------------------------
    def start(self) -> None:
        if not self._ppe_started:
            self._ppe_started = True
            self.engine.process(self._ppe_proc(), name="ppe-emulator")

    def shutdown(self) -> None:
        self._shutdown = True
        self._kick()

    def _kick(self) -> None:
        if self._ppe_wake is not None and not self._ppe_wake.triggered:
            self._ppe_wake.succeed()

    def _retry_parked(self) -> None:
        """Answer parked next-thread requests that can now be satisfied."""
        if not self._parked_fetch:
            return
        for k in sorted(self._parked_fetch):
            if not self.tsu.has_work(k):
                continue
            f = self.tsu.fetch(k)
            if f.kind == FetchKind.WAIT:
                continue
            self._parked_fetch.discard(k)
            self.mailboxes[k].send(f)

    def _ppe_proc(self) -> Generator:
        # Each poll is its own timeout: a command written *mid-sweep* is
        # observed (or missed) depending on whether its buffer's drain()
        # has already run this sweep, so collapsing the empty polls into
        # one accumulated timeout would drain every buffer at the sweep's
        # end and catch commands a real PPE misses.
        costs = self.costs
        n = self.tsu.nkernels
        while True:
            progressed = False
            for k in range(n):
                yield costs.ppe_poll_cycles
                self.ppe_busy_cycles += costs.ppe_poll_cycles
                self.ppe_polls += 1
                for cmd in self.command_buffers[k].drain():
                    progressed = True
                    if cmd.opcode == "complete":
                        nconsumers = self.tsu.fanout(cmd.arg)
                        busy = costs.ppe_per_command + costs.ppe_per_update * nconsumers
                        yield busy
                        self.ppe_busy_cycles += busy
                        self.ppe_commands += 1
                        self._apply_thread_completion(
                            cmd.kernel, cmd.arg, cmd.outcome
                        )
                    elif cmd.opcode == "fetch":
                        yield costs.ppe_per_command
                        self.ppe_busy_cycles += costs.ppe_per_command
                        self.ppe_commands += 1
                        f = self.tsu.fetch(cmd.kernel)
                        if f.kind == FetchKind.WAIT:
                            self._parked_fetch.add(cmd.kernel)
                        else:
                            self.mailboxes[cmd.kernel].send(f)
                    else:
                        raise ValueError(f"unknown command {cmd.opcode!r}")
                    self._retry_parked()
            if not progressed:
                # A command may have landed in an already-scanned buffer
                # during this sweep; re-check before sleeping (the kick
                # only fires when the wake event already exists).
                if any(len(cb) for cb in self.command_buffers):
                    continue
                if self._shutdown and not self._parked_fetch:
                    return
                if self._shutdown and self.tsu.is_exited():
                    # Flush parked fetches with EXIT replies.
                    self._retry_parked()
                    if not self._parked_fetch:
                        return
                self._ppe_wake = Event(self.engine, name="ppe-wake")
                yield self._ppe_wake
                self._ppe_wake = None

    # -- SPE-side protocol ------------------------------------------------------------
    def _write_command(self, cmd: Command) -> Generator:
        """SPE writes a command word; backs off while the buffer is full."""
        cb = self.command_buffers[cmd.kernel]
        yield self.costs.command_write_cycles
        while not cb.try_write(cmd):
            yield self.costs.command_retry_cycles
        self._kick()

    def fetch(self, kernel: int) -> Generator:
        yield from self._write_command(Command("fetch", kernel))
        reply = yield from self.mailboxes[kernel].receive()
        return reply

    def complete_inlet(self, kernel: int, block: DDMBlock) -> Generator:
        # The Inlet streams the block's metadata into the PPE-side TSU
        # structures in main memory.
        yield self.costs.inlet_per_entry * max(block.size, 1)
        self.tsu.complete_inlet(kernel)
        self._retry_parked()
        self.wake_kernels()

    def resolve_dynamic(
        self, kernel: int, local_iid: int, outcome: object
    ) -> Generator:
        # A spawned subflow's descriptor is staged into the
        # SharedVariableBuffer with one extra command-sized DMA write;
        # a branch key packs into the completion command for free.
        if isinstance(outcome, Subflow):
            yield self.costs.command_write_cycles

    def complete_thread(
        self,
        kernel: int,
        local_iid: int,
        instance: DThreadInstance,
        outcome: object,
    ) -> Generator:
        yield from self._write_command(
            Command("complete", kernel, local_iid, outcome=outcome)
        )

    def complete_outlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield self.costs.outlet_cycles
        self.tsu.complete_outlet(kernel)
        self._retry_parked()
        self.wake_kernels()

    # -- memory pricing -----------------------------------------------------------------
    def thread_memory_cycles(
        self, kernel: int, instance: DThreadInstance, summary: AccessSummary
    ) -> Optional[int]:
        dma = self.dma[kernel]
        ws = dma.working_set_bytes(summary)
        self.local_stores[kernel].require(ws, what=f"DThread {instance.name}")
        imports = dma.import_cycles(summary)
        exports = dma.export_cycles(summary)
        self.shared_buffer.record_import(summary.bytes_read)
        self.shared_buffer.record_export(summary.bytes_written)
        return imports + exports
