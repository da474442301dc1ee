"""TFluxDist: N TFluxSoft-style nodes over a message-passing network.

The paper stops at the cores behind one chip's TSU; §4.1 notes that "for
systems with very large number of CPUs it may be beneficial to have
multiple TSU Groups".  :mod:`repro.tsu.multigroup` reproduces that
on-chip; this platform takes the same scaling axis *off-chip*: each node
is an 8-core Xeon box of the TFluxSoft kind (one OS core, one TSU
Emulator core, six Kernels), and the nodes cooperate on one
Synchronization Graph through :mod:`repro.net` — remote Ready-Count
updates, block Inlet/Outlet broadcasts and a distributed termination
barrier travel as messages; operand lines written on one node and read
on another are forwarded and priced against NIC ingest bandwidth.

Modelling note: the machine handed to the simulator has ``8 * nnodes``
cores behind one coherent memory model, which prices every access as if
it were node-local; the network then *adds* the cross-node forwarding
cost through the adapter's memory hook.  Off-node lines are therefore
charged the coherent cost plus the wire cost — the right magnitude
without a second memory model (and exactly zero extra with one node,
which is what the differential test pins).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.message import NetParams
from repro.net.topology import Topology
from repro.platforms.base import Platform
from repro.sim.capability import check_nodes
from repro.sim.engine import Engine
from repro.sim.machine import XEON_8
from repro.tsu.base import ProtocolAdapter
from repro.tsu.dist import DistTSUAdapter
from repro.tsu.group import TSUGroup
from repro.tsu.hier import HierDistTSUAdapter
from repro.tsu.software import SoftTSUCosts

__all__ = ["TFluxDist"]


class TFluxDist(Platform):
    """Up to ``6 * nnodes`` compute kernels across message-passing nodes.

    *topology* selects the fabric wiring (default
    :class:`~repro.net.topology.FullMesh`); *cluster_size* switches the
    TSU fan-out to the hierarchical cluster-head relay of
    :class:`~repro.tsu.hier.HierDistTSUAdapter` (``None`` keeps the flat
    point-to-point adapter).

    ``execute`` is :meth:`Platform.execute`, unchanged: the two things a
    multi-node run cannot do — steal work across nodes, run with fewer
    kernels than nodes — are refused by the adapter's constructor
    (``ValueError``, before the program is claimed).
    """

    target = "N"

    def __init__(
        self,
        nnodes: int = 2,
        net: NetParams = NetParams(),
        topology: Optional[Topology] = None,
        cluster_size: Optional[int] = None,
    ) -> None:
        # The fused machine must fit the two-level sharer directory
        # (64 nodes x 64 cores); one check covers both axes.
        check_nodes(nnodes, cores_per_node=XEON_8.ncores, what="TFluxDist")
        if cluster_size is not None and cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
        super().__init__(XEON_8.with_cores(XEON_8.ncores * nnodes), name="tfluxdist")
        self.nnodes = nnodes
        self.node_machine = XEON_8
        self.costs = SoftTSUCosts()
        self.net = net
        self.topology = topology
        self.cluster_size = cluster_size

    @property
    def max_kernels(self) -> int:
        # Per node: the OS core and the TSU Emulator core are reserved.
        per_node = self.node_machine.ncores - self.node_machine.os_reserved_cores - 1
        return per_node * self.nnodes

    def adapter_factory(self) -> Callable[[Engine, TSUGroup], ProtocolAdapter]:
        nnodes, costs, net = self.nnodes, self.costs, self.net
        topology, cluster = self.topology, self.cluster_size
        if cluster is not None:
            return lambda engine, tsu: HierDistTSUAdapter(
                engine, tsu, nnodes=nnodes, costs=costs, net_params=net,
                topology=topology, cluster_size=cluster,
            )
        return lambda engine, tsu: DistTSUAdapter(
            engine, tsu, nnodes=nnodes, costs=costs, net_params=net,
            topology=topology,
        )
