"""TFluxHard: the TSU Group as a memory-mapped hardware device.

"The CPU controls the TSU Group through specially encoded flags.  At the
TSU Group side these requests are decoded and trigger the appropriate TSU
operation" (paper §4.1).  Every operation is therefore one (or a few)
transactions over the system network through the
:class:`~repro.sim.mmi.MemoryMappedInterface`, each paying the TSU
processing latency — 4 cycles over an L1 access by default, swept 1→128
by the ablation of §6.1.1 — plus any queueing at the single TSU command
port and the bus arbiter.

Cost model per operation:

* **fetch** — one query round-trip (bus → TSU port → bus).
* **thread completion** — one posted command carrying the completed
  DThread id; the TSU performs the consumer updates internally ("TSU-to-
  TSU communication ... handled internally without the intervention of
  any other unit", §3.3), occupying the port for one processing slot per
  consumer update.
* **inlet** — one command per loaded DThread entry (metadata words are
  stores into the TSU's address window).
* **outlet** — a single deallocate command.
"""

from __future__ import annotations

from typing import Generator

from repro.core.block import DDMBlock
from repro.core.dthread import DThreadInstance
from repro.core.dynamic import Subflow
from repro.sim.engine import Engine
from repro.sim.interconnect import SystemBus
from repro.sim.mmi import MemoryMappedInterface
from repro.tsu.base import ProtocolAdapter
from repro.tsu.group import TSUGroup

__all__ = ["HardwareTSUAdapter"]


class HardwareTSUAdapter(ProtocolAdapter):
    """Timed wrapper of the TSU Group behind the MMI."""

    def __init__(
        self,
        engine: Engine,
        tsu: TSUGroup,
        bus: SystemBus | None = None,
        tsu_processing_cycles: int = 4,
        l1_access_cycles: int = 2,
    ) -> None:
        super().__init__(engine, tsu)
        self.bus = bus if bus is not None else SystemBus(engine)
        self.mmi = MemoryMappedInterface(
            engine,
            self.bus,
            tsu_processing_cycles=tsu_processing_cycles,
            l1_access_cycles=l1_access_cycles,
        )

    def publish_counters(self, counters) -> None:
        scope = counters.scope("mmi")
        scope.inc("commands", self.mmi.commands)
        scope.inc("queries", self.mmi.queries)
        engine = counters.scope("engine")
        engine.inc("coalesced_commands", self.mmi.fast_commands)
        engine.inc("coalesced_queries", self.mmi.fast_queries)

    def fetch(self, kernel: int) -> Generator:
        # An uncontended fetch is one accumulated timeout for the whole
        # bus → port → processing ladder (see repro.sim.mmi).
        result = yield from self.mmi.query(lambda: self.tsu.fetch(kernel))
        return result

    def complete_inlet(self, kernel: int, block: DDMBlock) -> Generator:
        # Metadata loading is a stream of *posted* stores into the TSU's
        # address window: the CPU issues them back-to-back at store-issue
        # rate and the TSU absorbs them in its internal pipeline, so the
        # cost per entry is the store issue latency — independent of the
        # TSU's command processing time (unlike queries/completions).
        per_entry = self.mmi.l1_access_cycles + 2
        yield from self.mmi.command(lambda: None)
        yield per_entry * max(block.size - 1, 0)
        self.tsu.complete_inlet(kernel)
        self.wake_kernels()

    def resolve_dynamic(
        self, kernel: int, local_iid: int, outcome: object
    ) -> Generator:
        # A spawned subflow's template stream is posted stores into the
        # TSU's address window, exactly like Inlet metadata (one command
        # plus store-issue-rate entries); a branch key is encoded in the
        # completion flag itself and costs nothing extra.
        if isinstance(outcome, Subflow):
            per_entry = self.mmi.l1_access_cycles + 2
            yield from self.mmi.command(lambda: None)
            yield per_entry * max(outcome.ninstances - 1, 0)

    def complete_thread(
        self,
        kernel: int,
        local_iid: int,
        instance: DThreadInstance,
        outcome: object = None,
    ) -> Generator:
        nconsumers = len(self.tsu.current_block.consumers[local_iid])
        # The completion flag is one posted store; internal consumer
        # updates occupy the TSU pipeline but not the CPU.
        yield from self.mmi.command(
            lambda: self._apply_thread_completion(kernel, local_iid, outcome)
        )
        # Internal update occupancy (overlapped with CPU progress): charge
        # nothing to the kernel, the port hold above already serialises
        # back-to-back completions.
        del nconsumers

    def complete_outlet(self, kernel: int, block: DDMBlock) -> Generator:
        def apply() -> None:
            self.tsu.complete_outlet(kernel)

        yield from self.mmi.command(apply)
        self.wake_kernels()
