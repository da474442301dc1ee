"""repro.net — the simulated multi-node message-passing network.

The paper scales DDM to the cores behind one chip's TSU; §4.1 points past
that ("for systems with very large number of CPUs it may be beneficial to
have multiple TSU Groups").  This package takes that scaling axis
*off-chip*: several commodity multicore nodes cooperating on one
Synchronization Graph, connected by a point-to-point network whose NIC
and link occupancy are modelled on the DES engine's
:class:`~repro.sim.engine.Resource` primitives.

Split of concerns (mirroring :mod:`repro.sim.interconnect`'s precedent —
DES-level queueing for control traffic, analytic accounting for bulk
data):

* **control plane** — typed messages (a :class:`~repro.net.message.MsgKind`:
  remote Ready-Count updates, block Inlet/Outlet broadcasts, the
  termination barrier's TERMINATE/ACK pair) travel as DES processes
  through per-node NIC TX resources and per-directed-link resources,
  paying overhead, serialisation and propagation latency;
* **data plane** — cross-node forwarding of DThread operands, sized from
  each app's declared :class:`~repro.sim.accesses.AccessSummary` through
  the line-granular :class:`~repro.net.ownermap.RegionOwnerMap`, is
  priced analytically against per-node NIC RX ingest clocks (FIFO
  bandwidth contention without per-line DES events).

:class:`~repro.tsu.dist.DistTSUAdapter` builds the TFluxDist platform on
top of this; ``net.*`` counters surface all traffic through
:mod:`repro.obs`.
"""

from repro.net.message import MsgKind, NetParams
from repro.net.fabric import Network
from repro.net.ownermap import RegionOwnerMap
from repro.net.topology import FatTree, FullMesh, OversubscribedSpine, Topology

__all__ = [
    "MsgKind",
    "NetParams",
    "Network",
    "RegionOwnerMap",
    "Topology",
    "FullMesh",
    "FatTree",
    "OversubscribedSpine",
]
