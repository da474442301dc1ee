"""System network (shared bus) with an arbiter.

TFluxHard attaches the TSU Group to the chip's system network as a
memory-mapped device (paper §4.1, Figure 3); the MMI snoops this network
and forwards TSU-directed requests.  The bus here is a FIFO-arbitrated
shared medium: one transaction at a time, each occupying the bus for a
fixed number of cycles.  Cores' ordinary cache traffic is accounted
analytically inside the memory models (per-line latencies already include
the bus hop); the DES-level bus is used for the *control* traffic whose
queueing genuinely matters — TSU commands and replies, each one
transaction of :data:`CYCLES_PER_TRANSACTION` cycles.
"""

from __future__ import annotations

from repro.sim.engine import Engine, Resource

__all__ = ["SystemBus"]

#: Bus occupancy of one control transaction (arbitration + one word).
CYCLES_PER_TRANSACTION = 2


class SystemBus:
    """FIFO-arbitrated shared bus for control transactions."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        #: The bus's one slot; a transaction holds it for
        #: :data:`CYCLES_PER_TRANSACTION` cycles.
        self.arbiter = Resource(engine, capacity=1, name="system-bus")
        self.transactions = 0
        self.busy_cycles = 0

    def take(self) -> bool:
        """Issue one transaction: count it and take the arbiter's slot.

        The one way to use the bus, inside a process generator::

            if not bus.take():
                yield bus.arbiter  # queue for the slot
            yield CYCLES_PER_TRANSACTION
            bus.arbiter.release()

        A transaction is counted when issued.  Returns
        :meth:`Resource.take`'s verdict: False when the caller has to
        queue, by yielding :attr:`arbiter`.
        """
        self.transactions += 1
        self.busy_cycles += CYCLES_PER_TRANSACTION
        return self.arbiter.take()
