"""Cluster topologies: which links a message crosses between two nodes.

The original TFluxDist fabric was a full mesh — every directed (src, dst)
pair owned a private link, so the only contention was at the NIC ports.
That is the right model for a handful of nodes on a crossbar, but it
cannot exhibit the one effect that bounds cluster-scale DDM: *bisection
bandwidth*.  A :class:`Topology` names the links of the fabric and maps
each (src, dst) pair to the ordered list of links a message crosses, so
:class:`~repro.net.fabric.Network` can price every hop — store-and-forward
per-hop latency for control messages, FIFO serialisation through *shared*
links for both planes — without knowing the wiring.

Three wirings are provided:

* :class:`FullMesh` — one dedicated link per directed pair, one hop.
  Exactly the historical fabric: with this topology (the default) every
  cycle count is bit-identical to the pre-topology ``Network``.
* :class:`FatTree` — nodes grouped into pods of ``pod_size`` behind an
  edge switch; ``pod_size`` parallel links per pod reach the spine.
  Intra-pod traffic crosses 2 hops (up, down) on dedicated node links;
  inter-pod traffic crosses 4 (up, pod uplink, peer pod downlink, down)
  and *shares* the pod's uplinks — as many as pod members, so the
  fat-tree keeps full bisection bandwidth.
* :class:`OversubscribedSpine` — a :class:`FatTree` whose uplink count is
  divided by an oversubscription factor (the classic 4:1 datacenter
  spine).  Inter-pod pulls queue on the few uplinks, so D1's wide sweeps
  saturate exactly when the modelled bisection bandwidth runs out.

Link identities are small hashable tuples (``("up", 3)``, ``("spup", 0,
1)``); the ``Network`` lazily instantiates one DES resource and one
analytic FIFO clock per identity.  Topology objects are engine-free,
immutable and picklable — platforms embed them, and the exec cache hashes
them into run keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.sim.capability import check_nodes

__all__ = ["Topology", "FullMesh", "FatTree", "OversubscribedSpine", "LinkId"]

#: A link identity: a small hashable tuple naming one directed resource.
LinkId = Tuple


@dataclass(frozen=True)
class Topology:
    """Base wiring contract; subclasses define the link structure."""

    def validate(self, nnodes: int) -> None:
        """Reject node counts this wiring (or the directory) cannot host."""
        check_nodes(nnodes, what=self.describe())

    def control_path(self, src: int, dst: int) -> Tuple[LinkId, ...]:
        """Ordered links a control message occupies from *src* to *dst*."""
        raise NotImplementedError

    def data_path(self, src: int, dst: int) -> Tuple[LinkId, ...]:
        """The *shared* links a bulk transfer serialises through.

        Dedicated first/last-hop links are omitted — the data plane
        already models the receiver's RX ingest port, which those links
        cannot out-queue.  Only links several node pairs contend for
        (pod uplinks) appear here.
        """
        raise NotImplementedError

    def hops(self, src: int, dst: int) -> int:
        """Store-and-forward hop count (propagation latencies paid)."""
        return len(self.control_path(src, dst))

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class FullMesh(Topology):
    """One dedicated directed link per (src, dst) pair — the historical
    fabric.  One hop, no shared links, no queueing beyond the NICs."""

    def control_path(self, src: int, dst: int) -> Tuple[LinkId, ...]:
        return ((src, dst),)

    def data_path(self, src: int, dst: int) -> Tuple[LinkId, ...]:
        return ()

    def describe(self) -> str:
        return "fullmesh"


@dataclass(frozen=True)
class FatTree(Topology):
    """Two-level Clos: pods of *pod_size* nodes, as many links to the
    spine per pod (full bisection bandwidth)."""

    pod_size: int

    def __post_init__(self) -> None:
        if self.pod_size < 1:
            raise ValueError(f"pod_size must be >= 1, got {self.pod_size}")

    @property
    def _uplinks(self) -> int:
        return self.pod_size

    def _pod(self, node: int) -> int:
        return node // self.pod_size

    def _uplink_of(self, src: int, dst: int) -> int:
        # Deterministic ECMP: spread flows over the pod's parallel
        # uplinks by flow identity, as datacenter fabrics hash 5-tuples.
        return (src + dst) % self._uplinks

    def control_path(self, src: int, dst: int) -> Tuple[LinkId, ...]:
        if src == dst:
            return ()
        spod, dpod = self._pod(src), self._pod(dst)
        if spod == dpod:
            return (("up", src), ("down", dst))
        u = self._uplink_of(src, dst)
        return (("up", src), ("spup", spod, u), ("spdn", dpod, u), ("down", dst))

    def data_path(self, src: int, dst: int) -> Tuple[LinkId, ...]:
        spod, dpod = self._pod(src), self._pod(dst)
        if spod == dpod:
            return ()
        u = self._uplink_of(src, dst)
        return (("spup", spod, u), ("spdn", dpod, u))

    def describe(self) -> str:
        return f"fattree(pod={self.pod_size},up={self._uplinks})"


@dataclass(frozen=True)
class OversubscribedSpine(FatTree):
    """A fat-tree whose spine is oversubscribed *oversubscription*:1 —
    each pod gets ``max(1, pod_size // oversubscription)`` uplinks."""

    oversubscription: int = 4

    def __post_init__(self) -> None:
        if self.oversubscription < 1:
            raise ValueError(
                f"oversubscription must be >= 1, got {self.oversubscription}"
            )
        super().__post_init__()

    @property
    def _uplinks(self) -> int:
        return max(1, self.pod_size // self.oversubscription)

    def describe(self) -> str:
        return f"spine(pod={self.pod_size},oversub={self.oversubscription})"
