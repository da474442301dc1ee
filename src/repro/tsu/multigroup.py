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

"More of the same device", in code: the adapter subclasses
:class:`~repro.tsu.hardware.HardwareTSUAdapter`, which prices all five
protocol steps through "the device this kernel talks to" and builds
one device per group.  This module adds the group count, the kernel →
group partition and the inter-group latency tail after a completion —
nothing else; with one group it is the plain adapter, which
``tests/test_multigroup.py`` holds bit-identical as a guard.

The A5 ablation benchmark (``bench_ablation_multigroup.py``) measures the
trade-off the paper anticipated: contention relief versus inter-group
traffic.
"""

from __future__ import annotations

from typing import Generator

from repro.core.dthread import DThreadInstance
from repro.sim.engine import Engine
from repro.sim.mmi import MemoryMappedInterface
from repro.tsu.group import TSUGroup
from repro.tsu.hardware import HardwareTSUAdapter
from repro.tsu.tkt import contiguous_partition

__all__ = ["MultiGroupHardwareAdapter"]

#: Cycles a kernel waits for the kick-off of an inter-group transfer.
INTERGROUP_LATENCY = 20


class MultiGroupHardwareAdapter(HardwareTSUAdapter):
    """TFluxHard with *n_groups* hardware TSU Group devices."""

    def __init__(
        self,
        engine: Engine,
        tsu: TSUGroup,
        n_groups: int = 2,
        tsu_processing_cycles: int = 4,
    ) -> None:
        # Refuses fewer than one group, and more groups than kernels.
        self._group_of_kernel = contiguous_partition(tsu.nkernels, n_groups)
        # The parent builds one device per group.
        self.n_groups = n_groups
        super().__init__(engine, tsu, tsu_processing_cycles)
        self.intergroup_transfers = 0

    def publish_counters(self, counters) -> None:
        counters.inc("tsu.intergroup_transfers", self.intergroup_transfers)
        super().publish_counters(counters)

    # -- partitioning -----------------------------------------------------------
    def group_of_kernel(self, kernel: int) -> int:
        """Static kernel -> TSU group partition (contiguous blocks)."""
        return self._group_of_kernel[kernel]

    def _mmi(self, kernel: int) -> MemoryMappedInterface:
        return self.mmis[self.group_of_kernel(kernel)]

    def _cross_group_updates(self, kernel: int, local_iid: int) -> int:
        """Consumers of *local_iid* living in other groups' SMs."""
        tkt = self.tsu.tkt
        if tkt is None:
            return 0
        group_of = self._group_of_kernel
        my_group = group_of[kernel]
        return sum(
            group_of[tkt.kernel_of(consumer)] != my_group
            for members in self.tsu.consumers_of(local_iid)
            for consumer in members
        )

    # -- protocol -----------------------------------------------------------------
    def complete_thread(
        self,
        kernel: int,
        local_iid: int,
        instance: DThreadInstance,
        outcome: object,
    ) -> Generator:
        cross = self._cross_group_updates(kernel, local_iid)
        yield from super().complete_thread(kernel, local_iid, instance, outcome)
        if cross:
            # Inter-group Ready-Count updates travel between the TSU Group
            # devices; they occupy the source group's port (not the CPU),
            # so the kernel only observes the transfer kick-off latency.
            # Modelling note: the functional update is applied eagerly
            # (inside the command above), so remote consumers may wake up
            # to ~INTERGROUP_LATENCY cycles early — a deliberate
            # simplification, second-order at 20 cycles.
            self.intergroup_transfers += cross
            yield INTERGROUP_LATENCY
