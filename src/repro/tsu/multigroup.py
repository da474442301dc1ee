"""Multiple TSU Groups — the §4.1 extension.

"For systems with very large number of CPUs it may be beneficial to have
multiple TSU Groups.  A version of the TSU Group supporting such
functionality is currently under development."  This module builds that
version for TFluxHard.

Scheduling semantics are unchanged — the functional
:class:`~repro.tsu.group.TSUGroup` remains the single source of truth, so
programs behave identically.  What changes is the *hardware*: the chip
carries *G* TSU Group devices, each with its own MMI/command port on its
own network segment, serving a static partition of the kernels:

* a kernel's fetches and completion commands go to **its own** group's
  port — dividing the queueing that a single port suffers under
  fine-grained DThreads by ~G;
* the Post-Processing Phase of a completed DThread whose consumer lives
  in a *different* group's Synchronization Memory pays an inter-group
  transfer (the TSU-to-TSU communication that the single TSU Group of
  §3.3 handled "internally without the intervention of any other unit" —
  the cost the grouping originally avoided, now re-introduced at group
  granularity).

The A5 ablation benchmark (``bench_ablation_multigroup.py``) measures the
trade-off the paper anticipated: contention relief versus inter-group
traffic.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.block import DDMBlock
from repro.core.dthread import DThreadInstance
from repro.core.dynamic import Subflow
from repro.sim.engine import Engine
from repro.sim.interconnect import SystemBus
from repro.sim.mmi import InflightGate, MemoryMappedInterface
from repro.tsu.base import ProtocolAdapter
from repro.tsu.group import TSUGroup

__all__ = ["MultiGroupHardwareAdapter"]


class MultiGroupHardwareAdapter(ProtocolAdapter):
    """TFluxHard with *n_groups* hardware TSU Group devices."""

    def __init__(
        self,
        engine: Engine,
        tsu: TSUGroup,
        n_groups: int = 2,
        tsu_processing_cycles: int = 4,
        l1_access_cycles: int = 2,
        intergroup_latency: int = 20,
    ) -> None:
        super().__init__(engine, tsu)
        if n_groups < 1:
            raise ValueError("need at least one TSU group")
        if n_groups > tsu.nkernels:
            raise ValueError("more TSU groups than kernels is pointless")
        self.n_groups = n_groups
        self.intergroup_latency = intergroup_latency
        # Each group device sits on its own network segment with its own
        # command port — but all devices front the *same* functional TSU,
        # so they share one in-flight gate: the DES fast path may only
        # coalesce an op that is alone in front of the TSU, not merely
        # alone on its own device (a sibling device's mutation landing in
        # the window would otherwise be observed at a different logical
        # instant than on the eager path).
        self.buses = [SystemBus(engine) for _ in range(n_groups)]
        gate = InflightGate()
        self.mmis = [
            MemoryMappedInterface(
                engine,
                bus,
                tsu_processing_cycles=tsu_processing_cycles,
                l1_access_cycles=l1_access_cycles,
                inflight=gate,
            )
            for bus in self.buses
        ]
        self.intergroup_transfers = 0

    def publish_counters(self, counters) -> None:
        counters.inc("tsu.intergroup_transfers", self.intergroup_transfers)
        mmi = counters.scope("mmi")
        mmi.inc("commands", sum(m.commands for m in self.mmis))
        mmi.inc("queries", sum(m.queries for m in self.mmis))
        # Each group's MMI coalesces ops that were alone in front of the
        # shared TSU (the in-flight gate spans all group devices).
        engine = counters.scope("engine")
        engine.inc("coalesced_commands", sum(m.fast_commands for m in self.mmis))
        engine.inc("coalesced_queries", sum(m.fast_queries for m in self.mmis))

    # -- partitioning -----------------------------------------------------------
    def group_of_kernel(self, kernel: int) -> int:
        """Static kernel -> TSU group partition (contiguous blocks)."""
        return kernel * self.n_groups // self.tsu.nkernels

    def _mmi(self, kernel: int) -> MemoryMappedInterface:
        return self.mmis[self.group_of_kernel(kernel)]

    def _cross_group_updates(self, kernel: int, local_iid: int) -> int:
        """Consumers of *local_iid* living in other groups' SMs."""
        tkt = self.tsu.tkt
        if tkt is None:
            return 0
        my_group = self.group_of_kernel(kernel)
        count = 0
        for consumer in self.tsu.current_block.consumers[local_iid]:
            if self.group_of_kernel(tkt.kernel_of(consumer)) != my_group:
                count += 1
        return count

    # -- protocol -----------------------------------------------------------------
    def fetch(self, kernel: int) -> Generator:
        result = yield from self._mmi(kernel).query(lambda: self.tsu.fetch(kernel))
        return result

    def complete_inlet(self, kernel: int, block: DDMBlock) -> Generator:
        mmi = self._mmi(kernel)
        per_entry = mmi.l1_access_cycles + 2  # posted stores (see hardware.py)
        yield from mmi.command(lambda: None)
        yield per_entry * max(block.size - 1, 0)
        self.tsu.complete_inlet(kernel)
        self.wake_kernels()

    def resolve_dynamic(
        self, kernel: int, local_iid: int, outcome: object
    ) -> Generator:
        # Same pricing as the single-group device (hardware.py): spawned
        # templates stream into the kernel's own group as posted stores.
        if isinstance(outcome, Subflow):
            mmi = self._mmi(kernel)
            per_entry = mmi.l1_access_cycles + 2
            yield from mmi.command(lambda: None)
            yield per_entry * max(outcome.ninstances - 1, 0)

    def complete_thread(
        self,
        kernel: int,
        local_iid: int,
        instance: DThreadInstance,
        outcome: object = None,
    ) -> Generator:
        cross = self._cross_group_updates(kernel, local_iid)
        mmi = self._mmi(kernel)
        yield from mmi.command(
            lambda: self._apply_thread_completion(kernel, local_iid, outcome)
        )
        if cross:
            # Inter-group Ready-Count updates travel between the TSU Group
            # devices; they occupy the source group's port (not the CPU),
            # so the kernel only observes the transfer kick-off latency.
            # Modelling note: the functional update is applied eagerly
            # (inside the command above), so remote consumers may wake up
            # to ~intergroup_latency cycles early — a deliberate
            # simplification, second-order at the 20-cycle default.
            self.intergroup_transfers += cross
            yield self.intergroup_latency

    def complete_outlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield from self._mmi(kernel).command(
            lambda: self.tsu.complete_outlet(kernel)
        )
        self.wake_kernels()
