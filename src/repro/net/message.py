"""Message kinds and tunable parameters of the simulated network.

Every piece of inter-node TSU traffic is one of a small closed set of
message kinds, so the network can account (and the tests can assert)
exactly what crossed a link and why.  A message is its kind, its two
nodes and its payload size, handed to
:meth:`~repro.net.fabric.Network.transmit` as plain arguments.  Sizes
are explicit: a message pays for its header plus a payload sized from
what it actually carries — Ready-Count updates are a few words, an
Inlet broadcast carries the block's metadata, a data forward carries
cache lines.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = ["MsgKind", "NetParams", "UPDATE_BYTES", "INLET_ENTRY_BYTES"]

#: Wire size of one remote Ready-Count update (thread id + decrement).
UPDATE_BYTES = 16
#: Wire size of one DThread entry in an Inlet metadata broadcast.
INLET_ENTRY_BYTES = 16


class MsgKind(enum.Enum):
    """What a message carries between two nodes' TSU shards."""

    #: Post-processing decrements for consumers whose SM lives remotely.
    READY_UPDATE = "ready_update"
    #: Bulk operand forwarding (data plane; accounted, not event-driven).
    DATA_FORWARD = "data_forward"
    #: A block's Inlet completed: remote shards learn the block is live.
    INLET_BCAST = "inlet_bcast"
    #: A block's Outlet completed: remote shards advance to the next block.
    OUTLET_BCAST = "outlet_bcast"
    #: The last Outlet ran: remote nodes must drain and exit.
    TERMINATE = "terminate"
    #: A node's acknowledgement of TERMINATE (closes the barrier).
    ACK = "ack"


@dataclass(frozen=True)
class NetParams:
    """Cycle/byte parameters of the inter-node fabric.

    Defaults are commodity-cluster magnitudes relative to the paper's
    Xeon clock: ~0.15 µs one-way latency and tens of Gbit/s of link
    bandwidth.  ``bytes_per_cycle`` may be fractional (0.5 = two cycles
    per byte); ``0`` disables bandwidth accounting entirely (infinitely
    fat links).  As with the TSU cost tables, only the *ratio* to DThread
    granularity matters — ``benchmarks/bench_dist_scaling.py`` sweeps it.
    """

    link_latency_cycles: int = 400
    bytes_per_cycle: float = 16.0
    nic_overhead_cycles: int = 120
    message_header_bytes: int = 64

    def __post_init__(self) -> None:
        if self.link_latency_cycles < 0 or self.nic_overhead_cycles < 0:
            raise ValueError("latencies must be non-negative")
        if self.bytes_per_cycle < 0 or self.message_header_bytes < 0:
            raise ValueError("sizes/bandwidth must be non-negative")

    @classmethod
    def zero_cost(cls) -> "NetParams":
        """A free, infinitely fast network.

        The differential anchor: TFluxDist with one node and a zero-cost
        network must be bit-identical to TFluxSoft
        (``tests/test_dist_differential.py``).
        """
        return cls(
            link_latency_cycles=0,
            bytes_per_cycle=0.0,
            nic_overhead_cycles=0,
            message_header_bytes=0,
        )

    def serialize_cycles(self, nbytes: int) -> int:
        """Cycles to push *nbytes* through one link at line rate."""
        if self.bytes_per_cycle <= 0 or nbytes <= 0:
            return 0
        return math.ceil(nbytes / self.bytes_per_cycle)
