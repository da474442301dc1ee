"""TFluxSoft: the TSU as a software emulator on a dedicated core.

"In the case of TFluxSoft we implement the TSU as a software module that
executes its code on one of the cores of the multicore processor ...
named TSU Emulator" (paper §4.2).  The operations split between the
kernels (Local TSU — reading the own ready queue, loading metadata) and
the emulator (Global TSU — draining the TUB, decrementing Ready Counts
through the TKT).

Timing mechanics modelled here:

* a completing kernel pushes the completion into a **TUB segment** —
  a capacity-``nsegments`` resource stands in for the try-lock search
  (when every segment is locked the kernel stalls, the contention the
  segmenting was introduced to bound);
* the **TSU Emulator process** drains the queue: per-item base cost plus a
  per-consumer Ready-Count update cost (TKT lookup + SM decrement).  The
  post-processing of a DThread therefore lands *later* than its
  completion — the extra scheduling latency that makes TFluxSoft need
  coarser DThreads than TFluxHard (paper §6.2.2);
* fetches read the kernel's own SM: cheap and contention-free.

All constants live in :class:`SoftTSUCosts` so the ablation benchmarks can
sweep them.

The emulator mechanism — TUB resource, completion queue, wake event,
drain loop, push, occupancy tallies — lives once, in
:class:`EmulatorShard`.  :class:`SoftwareTSUAdapter` owns one shard;
:class:`~repro.tsu.dist.DistTSUAdapter` subclasses it with one shard per
node and overrides only what is distributed, so a change to the emulator
loop is made here and nowhere else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.core.block import DDMBlock
from repro.core.dthread import DThreadInstance
from repro.core.dynamic import Subflow
from repro.sim.engine import Engine, Event, Resource
from repro.tsu.base import ProtocolAdapter
from repro.tsu.group import TSUGroup

__all__ = ["SoftTSUCosts", "EmulatorShard", "SoftwareTSUAdapter"]


@dataclass(frozen=True)
class SoftTSUCosts:
    """Cycle costs of the software TSU protocol (Xeon-calibrated defaults).

    The absolute values are order-of-magnitude estimates of short critical
    sections on a 2008-class x86 (a locked cache line costs tens to a few
    hundred cycles); the evaluation only relies on their *ratio* to DThread
    granularity, which the unrolling ablation sweeps explicitly.
    """

    fetch_cycles: int = 60
    tub_push_cycles: int = 250
    tub_segments: int = 8
    emulator_per_item: int = 150
    emulator_per_update: int = 120
    emulator_poll_cycles: int = 80
    inlet_per_entry: int = 90
    outlet_cycles: int = 400


class EmulatorShard:
    """One TSU-Emulator core and the TUB it drains.

    The single home of the emulator mechanism: TFluxSoft owns one shard,
    TFluxDist one per node.  *post_process* ``(kernel, local_iid,
    outcome)`` is what the owner does when a drained completion's
    emulator time has elapsed — where the two platforms differ.
    """

    def __init__(
        self,
        engine: Engine,
        tsu: TSUGroup,
        costs: SoftTSUCosts,
        post_process: Callable[[int, int, object], None],
        name: str = "",
    ) -> None:
        self.engine = engine
        self.tsu = tsu
        self.costs = costs
        self.name = name
        self._post_process = post_process
        self.tub = Resource(engine, capacity=costs.tub_segments, name=f"tub{name}")
        # (kernel, local_iid, outcome): the TUB entry carries the dynamic
        # outcome (branch key / spawned Subflow) to the emulator, which
        # applies it during post-processing.
        self._queue: deque[tuple[int, int, object]] = deque()
        self._wake: Optional[Event] = None
        self._started = False
        self._shutdown = False
        # Statistics (plain ints on the hot path; see publish_counters).
        self.busy_cycles = 0
        self.items = 0
        self.updates = 0
        self.pushes = 0

    def start(self) -> None:
        """Launch the TSU Emulator process (idempotent)."""
        if not self._started:
            self._started = True
            self.engine.process(self._drain(), name=f"tsu-emulator{self.name}")

    def shutdown(self) -> None:
        self._shutdown = True
        self._kick()

    def _kick(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _drain(self) -> Generator:
        """The dedicated-core loop: drain the TUB, apply post-processing."""
        costs = self.costs
        while True:
            if self._queue:
                kernel, local_iid, outcome = self._queue.popleft()
                nconsumers = len(self.tsu.consumers_of(local_iid))
                busy = costs.emulator_per_item + costs.emulator_per_update * nconsumers
                yield busy
                self.busy_cycles += busy
                self.items += 1
                self.updates += nconsumers
                self._post_process(kernel, local_iid, outcome)
            elif self._shutdown:
                return
            else:
                self._wake = Event(self.engine, name="tub-nonempty")
                yield self._wake
                self._wake = None

    def push(self, kernel: int, local_iid: int, outcome: object) -> Generator:
        """A completing kernel's side: find a free TUB segment (try/lock;
        blocking only when all segments are simultaneously held), keep
        it for the push, and kick the emulator."""
        yield from self.tub.hold(self.costs.tub_push_cycles)
        self._queue.append((kernel, local_iid, outcome))
        self.pushes += 1
        self._kick()


class SoftwareTSUAdapter(ProtocolAdapter):
    """Timed software-TSU protocol with an explicit emulator process."""

    def __init__(
        self,
        engine: Engine,
        tsu: TSUGroup,
        costs: SoftTSUCosts = SoftTSUCosts(),
    ) -> None:
        super().__init__(engine, tsu)
        self.costs = costs
        self.shards = [
            EmulatorShard(engine, tsu, costs, self._apply_thread_completion)
        ]

    def _shard(self, kernel: int) -> EmulatorShard:
        """The emulator *kernel* pushes completions to (the only one)."""
        return self.shards[0]

    # -- statistics (summed over the shards) -------------------------------------
    @property
    def emulator_busy_cycles(self) -> int:
        return sum(s.busy_cycles for s in self.shards)

    @property
    def emulator_items(self) -> int:
        return sum(s.items for s in self.shards)

    @property
    def tub_pushes(self) -> int:
        return sum(s.pushes for s in self.shards)

    def publish_counters(self, counters) -> None:
        emu = counters.scope("emulator")
        emu.inc("busy_cycles", self.emulator_busy_cycles)
        emu.inc("items", self.emulator_items)
        emu.inc("updates", sum(s.updates for s in self.shards))
        counters.inc("tub.pushes", self.tub_pushes)

    # -- emulator lifecycle ------------------------------------------------------
    def start(self) -> None:
        for shard in self.shards:
            shard.start()

    def shutdown(self) -> None:
        for shard in self.shards:
            shard.shutdown()

    # -- protocol costs -----------------------------------------------------------
    def fetch(self, kernel: int) -> Generator:
        yield self.costs.fetch_cycles
        return self.tsu.fetch(kernel)

    def complete_inlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield self.costs.inlet_per_entry * max(block.size, 1)
        self.tsu.complete_inlet(kernel)
        self.wake_kernels()

    def resolve_dynamic(
        self, kernel: int, local_iid: int, outcome: object
    ) -> Generator:
        # A spawned subflow's descriptor is a second TUB-sized payload
        # pushed alongside the completion word; a branch key rides the
        # completion word itself for free.
        if isinstance(outcome, Subflow):
            yield self.costs.tub_push_cycles

    def complete_thread(
        self,
        kernel: int,
        local_iid: int,
        instance: DThreadInstance,
        outcome: object,
    ) -> Generator:
        return self._shard(kernel).push(kernel, local_iid, outcome)

    def complete_outlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield self.costs.outlet_cycles
        self.tsu.complete_outlet(kernel)
        self.wake_kernels()
