"""Hierarchical TFluxDist: TSU fan-out relayed through cluster heads.

The flat :class:`~repro.tsu.dist.DistTSUAdapter` sends one point-to-point
message per remote node for every Ready-Count fan-out and every
Inlet/Outlet phase broadcast.  At 64 nodes that is 63 back-to-back
serialisations through a single NIC TX port — the sender's NIC, not the
fabric, becomes the wall (the same observation the paper makes for one
TSU at §4.1, one level up: "for systems with very large number of CPUs
it may be beneficial to have multiple TSU Groups").

This adapter arranges the nodes into *clusters* of ``cluster_size`` and
relays cross-cluster traffic through each cluster's **head** (its lowest
node, in the spirit of :mod:`repro.tsu.multigroup`'s per-group TSUs):
the sender emits one aggregated message per remote cluster, and the head
re-transmits to its members on arrival.  The source NIC now serialises
``nclusters - 1`` messages instead of ``nnodes - 1``, and the per-member
deliveries leave different heads' NICs *in parallel*.  On a pod-aligned
fat-tree each aggregate crosses the spine once instead of
``cluster_size`` times.

Strictly costs only, per the repo invariant:

* Ready-Count decrements are functional in ``complete_thread`` exactly
  as in the flat adapter; only the **wake signals** ride the relay, so a
  relayed kernel may wake one extra hop later — and ``has_work``'s
  re-check discipline keeps that purely a timing effect.
* The TERMINATE/ACK termination barrier stays point-to-point: it is a
  correctness handshake (the last node may not exit before every ACK),
  and relaying an ACK would only add latency to the critical path.
* With ``cluster_size >= nnodes`` (or 1 node) every path degenerates to
  the flat adapter's — the differential tests pin this.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.net.message import UPDATE_BYTES, MsgKind, NetParams
from repro.net.topology import Topology
from repro.sim.engine import Engine
from repro.tsu.dist import DistTSUAdapter
from repro.tsu.group import TSUGroup
from repro.tsu.software import SoftTSUCosts

__all__ = ["HierDistTSUAdapter"]


class HierDistTSUAdapter(DistTSUAdapter):
    """Tree-structured fan-out: one TSU shard per node, grouped in clusters."""

    def __init__(
        self,
        engine: Engine,
        tsu: TSUGroup,
        nnodes: int,
        costs: SoftTSUCosts,
        net_params: Optional[NetParams] = None,
        topology: Optional[Topology] = None,
        cluster_size: int = 8,
    ) -> None:
        if cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
        super().__init__(engine, tsu, nnodes, costs, net_params, topology)
        self.cluster_size = cluster_size
        self.relayed_messages = 0

    def publish_counters(self, counters) -> None:
        counters.inc("net.relayed_messages", self.relayed_messages)
        super().publish_counters(counters)

    # -- clustering --------------------------------------------------------
    def _cluster(self, node: int) -> int:
        return node // self.cluster_size

    def _head(self, cluster: int) -> int:
        return cluster * self.cluster_size

    def _members(self, cluster: int) -> range:
        lo = cluster * self.cluster_size
        return range(lo, min(lo + self.cluster_size, self.nnodes))

    # -- relayed fan-out ---------------------------------------------------
    def _fanout_ready(
        self, node: int, sends: list[tuple[int, int, Optional[Iterable[int]]]]
    ) -> None:
        home = self._cluster(node)
        by_cluster: dict[int, list[tuple[int, int, Optional[Iterable[int]]]]] = {}
        for send in sends:
            by_cluster.setdefault(self._cluster(send[0]), []).append(send)
        for cluster, members in sorted(by_cluster.items()):
            if cluster == home:
                # Intra-cluster stays point-to-point (one NIC hop away).
                for t, payload_bytes, wake in members:
                    self._send_ready(node, t, payload_bytes, wake)
                continue
            head = self._head(cluster)
            aggregate = sum(payload_bytes for _, payload_bytes, _ in members)
            self.net.transmit(
                MsgKind.READY_UPDATE, node, head, max(aggregate, UPDATE_BYTES),
                self._relay_ready, (head, members),
            )

    def _relay_ready(self, relay) -> None:
        """An aggregate READY_UPDATE landed on cluster head *head*: wake
        its own kernels, forward every member's share point-to-point."""
        head, members = relay
        for t, payload_bytes, wake in members:
            if t == head:
                if wake:
                    self.wake_kernels(wake)
            else:
                self.relayed_messages += 1
                self._send_ready(head, t, payload_bytes, wake)

    def _broadcast(self, node: int, kind: MsgKind, payload_bytes: int) -> None:
        home = self._cluster(node)
        nclusters = -(-self.nnodes // self.cluster_size)
        for cluster in range(nclusters):
            if cluster == home:
                for t in self._members(cluster):
                    if t != node:
                        self._send_wakeup(node, t, kind, payload_bytes)
                continue
            head = self._head(cluster)
            others = tuple(t for t in self._members(cluster) if t != head)
            self.net.transmit(
                kind, node, head, payload_bytes,
                self._relay_wakeup, (kind, payload_bytes, head, others),
            )

    def _relay_wakeup(self, relay) -> None:
        """A phase broadcast landed on cluster head *head*: wake its
        kernels and re-send to the cluster's *others*."""
        kind, payload_bytes, head, others = relay
        self.wake_kernels(self._node_kernels[head])
        for t in others:
            self.relayed_messages += 1
            self._send_wakeup(head, t, kind, payload_bytes)
