"""Memory-Mapped Interface (MMI) for the hardware TSU.

In TFluxHard the TSU Group is attached to the system network as a
memory-mapped device (paper §4.1): CPUs control it through "specially
encoded flags" written to its address window; the MMI snoops the network,
forwards TSU-directed requests to the TSU Group, and writes replies back
onto the network once the arbiter grants access.

The model exposes the two timed primitives the Kernel code uses:

* :meth:`MMI.command` — a posted store carrying an encoded command; it
  occupies the bus for one transaction and the TSU's command port for the
  TSU processing time (the paper's "+4 cycles over an L1 access" default,
  swept 1→128 in the ablation).
* :meth:`MMI.query` — a load that returns the TSU's reply (e.g. the next
  ready DThread), costing a bus round-trip plus the TSU processing time.

Both are DES process fragments (``yield from``), so queueing at the bus
and at the single TSU command port is modelled faithfully.  There is one
protocol, run step by step: bus transaction, port grant, processing
time, the functional *action*, port release, and for a query the reply
transaction.  The steps run in one generator frame: each slot is taken
by the engine's one take-or-queue rule (:meth:`Resource.take`, through
:meth:`SystemBus.take` for the bus), and a request that has to queue
yields the :class:`~repro.sim.engine.Resource` itself, so every step is
the same event at the same heap place as a nested ``hold``/``acquire``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.sim.engine import Engine, Resource
from repro.sim.interconnect import CYCLES_PER_TRANSACTION, SystemBus

__all__ = ["MemoryMappedInterface"]


class MemoryMappedInterface:
    """The bridge between the system network and the hardware TSU Group."""

    def __init__(
        self,
        engine: Engine,
        bus: SystemBus,
        tsu_processing_cycles: int = 4,
        l1_access_cycles: int = 2,
    ) -> None:
        self.engine = engine
        self.bus = bus
        # "Each access to the TSU is penalized with 4 additional cycles
        # compared to a normal L1 cache access" (§6.1.1).
        self.tsu_processing_cycles = tsu_processing_cycles
        self.l1_access_cycles = l1_access_cycles
        # The TSU Group processes one command at a time.
        self._port = Resource(engine, capacity=1, name="tsu-port")
        self.commands = 0
        self.queries = 0

    @property
    def access_cycles(self) -> int:
        """Latency of one TSU access seen by the CPU."""
        return self.l1_access_cycles + self.tsu_processing_cycles

    def _op(self, action: Callable[[], Any], reply: bool) -> Generator:
        """One TSU access: bus slot, then the command port for the TSU
        processing time with *action* at its end; a query's *reply*
        travels back over the network as an arbiter-granted write."""
        bus = self.bus
        arbiter = bus.arbiter
        if not bus.take():
            yield arbiter
        try:
            yield CYCLES_PER_TRANSACTION
        finally:
            arbiter.release()
        port = self._port
        if not port.take():
            yield port
        try:
            yield self.access_cycles
            # The action runs before the port is released, so whatever it
            # wakes is scheduled ahead of the next waiter's port grant.
            result = action()
        finally:
            port.release()
        if reply:
            # The bus may have been re-taken mid-flight, so the reply
            # leg arbitrates on its own.
            if not bus.take():
                yield arbiter
            try:
                yield CYCLES_PER_TRANSACTION
            finally:
                arbiter.release()
            self.queries += 1
        else:
            self.commands += 1
        return result

    def command(self, action: Callable[[], Any]) -> Generator:
        """Deliver an encoded command; *action* mutates the TSU state."""
        return self._op(action, reply=False)

    def query(self, action: Callable[[], Any]) -> Generator:
        """Round-trip load; the process's return value is *action*'s result."""
        return self._op(action, reply=True)
