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

Every step goes through :meth:`HardwareTSUAdapter._mmi`, "the device
this kernel talks to" — the only device here.  The §4.1 multiple-groups
extension (:mod:`repro.tsu.multigroup`) subclasses this adapter with one
device per group and overrides that lookup, so the MMI pricing of the
five protocol steps is written once, in this module.
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


def _no_action() -> None:
    """A posted store's action: the TSU state is changed by the caller."""


class HardwareTSUAdapter(ProtocolAdapter):
    """Timed wrapper of the TSU Group behind the MMI."""

    #: TSU Group devices on the chip (one here; a subclass sets its own
    #: before this constructor builds them).
    n_groups = 1

    def __init__(
        self,
        engine: Engine,
        tsu: TSUGroup,
        tsu_processing_cycles: int = 4,
        l1_access_cycles: int = 2,
    ) -> None:
        super().__init__(engine, tsu)
        #: The TSU Group devices, each on its own network segment with its
        #: own command port; all of them front the same functional TSU.
        self.buses = [SystemBus(engine) for _ in range(self.n_groups)]
        self.mmis = [
            MemoryMappedInterface(
                engine,
                bus,
                tsu_processing_cycles=tsu_processing_cycles,
                l1_access_cycles=l1_access_cycles,
            )
            for bus in self.buses
        ]

    def _mmi(self, kernel: int) -> MemoryMappedInterface:
        """The device *kernel* talks to (the only one)."""
        return self.mmis[0]

    def publish_counters(self, counters) -> None:
        scope = counters.scope("mmi")
        scope.inc("commands", sum(m.commands for m in self.mmis))
        scope.inc("queries", sum(m.queries for m in self.mmis))

    def _posted_stores(self, kernel: int, entries: int) -> Generator:
        """A stream of *posted* stores into the TSU's address window:
        the CPU issues them back-to-back at store-issue rate and the TSU
        absorbs them in its internal pipeline, so after the first
        command the cost per entry is the store issue latency —
        independent of the TSU's command processing time (unlike
        queries/completions)."""
        mmi = self._mmi(kernel)
        yield from mmi.command(_no_action)
        yield (mmi.l1_access_cycles + 2) * max(entries - 1, 0)

    def fetch(self, kernel: int) -> Generator:
        return self._mmi(kernel).query(lambda: self.tsu.fetch(kernel))

    def complete_inlet(self, kernel: int, block: DDMBlock) -> Generator:
        # Metadata loading: one posted store per DThread entry.
        yield from self._posted_stores(kernel, block.size)
        self.tsu.complete_inlet(kernel)
        self.wake_kernels()

    def resolve_dynamic(
        self, kernel: int, local_iid: int, outcome: object
    ) -> Generator:
        # A spawned subflow's template stream is posted stores exactly
        # like Inlet metadata; a branch key is encoded in the completion
        # flag itself and costs nothing extra.
        if isinstance(outcome, Subflow):
            yield from self._posted_stores(kernel, outcome.ninstances)

    def complete_thread(
        self,
        kernel: int,
        local_iid: int,
        instance: DThreadInstance,
        outcome: object,
    ) -> Generator:
        # The completion flag is one posted store.  The TSU's internal
        # consumer updates occupy its pipeline but not the CPU: nothing
        # is charged to the kernel for them, the port hold already
        # serialises back-to-back completions.
        return self._mmi(kernel).command(
            lambda: self._apply_thread_completion(kernel, local_iid, outcome)
        )

    def complete_outlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield from self._mmi(kernel).command(
            lambda: self.tsu.complete_outlet(kernel)
        )
        self.wake_kernels()
