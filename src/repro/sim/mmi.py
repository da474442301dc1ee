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
and at the single TSU command port is modelled faithfully.

Coalesced ladder (on a coalescing engine, see :mod:`repro.sim.engine`):
when an op is *alone* in the device (no other command/query between
entry and exit) and both the bus arbiter and the command port grant
synchronously, the whole bus-hold → port-acquire → TSU-processing
ladder collapses into a single accumulated timeout: the bus is lazily released at the exact
cycle the eager protocol would free it, and the port is released
eagerly when the timeout fires — the exact point the eager protocol
releases it.  The alone-in-device gate matters: a contender already in
flight (past the bus, about to request the port) may reach the port at
the *same timestamp* as our plan-time claim, and pre-claiming would
jump it in the FIFO and reorder TSU operations.  The functional
*action* still runs at its exact eager-protocol time (end of the TSU
processing slot), preserving the functional/timing split and
bit-identical cycle counts.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.sim.engine import Engine, Resource
from repro.sim.interconnect import SystemBus

__all__ = ["MemoryMappedInterface", "InflightGate"]


class InflightGate:
    """Ops in flight across every MMI device attached to one TSU Group.

    A single-device adapter keeps a private gate; adapters with several
    MMI devices in front of the *same* functional TSU (multigroup) must
    share one.  A coalesced op is a single timeout whose action-resume
    event is scheduled at *entry* time, while the eager protocol
    schedules it at the *port-grant* instant — same cycle, different
    engine sequence numbers.  With a sibling op in flight on another
    device, a TSU mutation can land between those two instants and the
    coalesced query would read TSU state the eager schedule has not yet
    produced.  Sharing the gate makes "alone in the device" mean "alone
    in front of the TSU", which restores the eager ordering exactly.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class MemoryMappedInterface:
    """The bridge between the system network and the hardware TSU Group."""

    def __init__(
        self,
        engine: Engine,
        bus: SystemBus,
        tsu_processing_cycles: int = 4,
        l1_access_cycles: int = 2,
        inflight: "InflightGate | None" = None,
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
        #: Ops currently somewhere between entry and exit of command/query
        #: on any MMI sharing this gate (see :class:`InflightGate`).  The
        #: ladder coalesces only when an op is alone in front of the TSU
        #: (``count == 1``): a contender mid-flight may reach a command
        #: port at the *same timestamp* as our claim, and jumping it in
        #: the FIFO would reorder TSU operations.
        self._inflight = inflight if inflight is not None else InflightGate()
        self.fast_commands = 0
        self.fast_queries = 0

    @property
    def access_cycles(self) -> int:
        """Latency of one TSU access seen by the CPU."""
        return self.l1_access_cycles + self.tsu_processing_cycles

    def _try_claim(self) -> bool:
        """Claim bus + port synchronously, or neither (coalescing gate).

        Succeeds only on a coalescing engine with this op alone in the
        device; the port is then acquired at plan time (unobservable:
        any later contender must first win the bus, which stays held for
        the full eager bus slot) and released *eagerly* when the plan's
        timeout fires — the exact point the eager protocol releases it.
        """
        if not self.engine.coalesce or self._inflight.count != 1:
            return False
        bus_arbiter = self.bus._arbiter
        if not bus_arbiter.try_acquire():
            return False
        if not self._port.try_acquire():
            # Undo: the synchronous grant created no event, so a plain
            # release (queue is empty, or try_acquire would have failed)
            # restores the arbiter exactly.
            bus_arbiter.release()
            return False
        return True

    def _claim_plan(self) -> int:
        """Lazy-release schedule for a claimed bus; returns the plan delay."""
        bus_hold = self.bus.cycles_per_transaction
        self.bus._arbiter.release_at(self.engine.now + bus_hold)
        self.bus.transactions += 1
        self.bus.busy_cycles += bus_hold
        return bus_hold + self.access_cycles

    def _op(self, action: Callable[[], Any], reply: bool) -> Generator:
        """One TSU access: bus slot, then the command port for the TSU
        processing time with *action* at its end; a query's *reply*
        travels back over the network as an arbiter-granted write."""
        self._inflight.count += 1
        try:
            claimed = self._try_claim()
            if claimed:
                # One accumulated timeout for bus hold + TSU processing;
                # the action still runs at the exact eager-protocol cycle.
                yield self._claim_plan()
                result = action()
                self._port.release()
            else:
                yield from self.bus.transfer()
                yield from self._port.acquire()
                try:
                    yield self.access_cycles
                    result = action()
                finally:
                    self._port.release()
            if reply:
                # The bus may have been re-taken mid-flight, so the reply
                # leg arbitrates on its own.
                yield from self.bus.transfer()
                self.queries += 1
                self.fast_queries += claimed
            else:
                self.commands += 1
                self.fast_commands += claimed
            return result
        finally:
            self._inflight.count -= 1

    def command(self, action: Callable[[], Any]) -> Generator:
        """Deliver an encoded command; *action* mutates the TSU state."""
        return self._op(action, reply=False)

    def query(self, action: Callable[[], Any]) -> Generator:
        """Round-trip load; the process's return value is *action*'s result."""
        return self._op(action, reply=True)
