"""Point-to-point fabric: NIC + link occupancy on the DES engine.

One :class:`Network` connects the N nodes of a TFluxDist machine with a
full mesh of directed links.  The model follows the split established by
:mod:`repro.sim.interconnect`:

* **control messages** (:meth:`Network.transmit`) are DES processes, one
  per message.  A message first occupies the sender's NIC TX port (fixed
  per-message overhead plus serialisation at line rate), then the
  directed link for its serialisation time, then propagates for the link
  latency.  Both the NIC and each link are FIFO
  :class:`~repro.sim.engine.Resource`\\ s, so bursts of remote
  Ready-Count updates queue and the contention shows up in cycle counts.
  A free slot is taken by the engine's one take-or-queue rule
  (:meth:`~repro.sim.engine.Resource.take`) in the message's own frame,
  as the MMI does, and only an occupancy that has to queue runs a
  ``Resource.hold``: an uncontended occupancy is one timeout and no
  generator.  A message is its kind, its two nodes and its payload
  size, and on arrival it calls ``on_deliver(arg)``.
* **bulk data** (:meth:`Network.pull`) is accounted analytically: the
  destination's RX ingest is a FIFO clock, not an event source.  A
  DThread that must pull operand lines from remote owners stalls for
  the link latency plus its position in the RX ingest queue — bandwidth
  contention without per-line DES events, mirroring how the cache models
  price ordinary load/store traffic.

The wiring between the nodes is a :class:`~repro.net.topology.Topology`:
it maps each (src, dst) pair to the ordered links crossed, the control
plane occupies one DES resource per link with the propagation latency
paid per hop (store-and-forward), and the data plane serialises through
an analytic FIFO clock per *shared* link — so a fat-tree's pod uplinks
congest while the default :class:`~repro.net.topology.FullMesh`
reproduces the historical single-link cycle counts exactly.

All traffic lands in ``net.*`` counters via :meth:`publish_counters`,
including per-hop congestion: ``net.hops`` (total link crossings) and
``net.link_queue_cycles`` (cycles spent queued behind other traffic at
NICs and shared links).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Mapping, Optional

from repro.net.message import MsgKind, NetParams
from repro.net.topology import FullMesh, LinkId, Topology
from repro.sim.engine import Engine, Process, Resource

__all__ = ["Network"]


class Network:
    """*nnodes* nodes wired by a :class:`Topology` (default full mesh)."""

    def __init__(
        self,
        engine: Engine,
        nnodes: int,
        params: NetParams,
        topology: Optional[Topology] = None,
    ) -> None:
        if nnodes < 1:
            raise ValueError(f"need at least one node, got {nnodes}")
        self.engine = engine
        self.nnodes = nnodes
        self.params = params
        self.topology = topology if topology is not None else FullMesh()
        self.topology.validate(nnodes)
        self._nic_tx: list[Resource] = [
            Resource(engine, capacity=1, name=f"nic-tx:{n}") for n in range(nnodes)
        ]
        # Link resources are created lazily: a contiguous placement on a
        # chain-shaped graph only ever uses a few of the possible links.
        self._links: Dict[LinkId, Resource] = {}
        #: ``_routes[src][dst]``: the link resources of the topology's
        #: control path, resolved on the pair's first message.
        self._routes: list[list[Optional[tuple[Resource, ...]]]] = [
            [None] * nnodes for _ in range(nnodes)
        ]
        #: Analytic FIFO clocks for the data plane's shared links (pod
        #: uplinks): the time each next becomes free.
        self._link_free: Dict[LinkId, float] = {}
        #: Per-node RX ingest clock for the analytic data plane: the time
        #: at which the node's NIC RX port next becomes free.
        self._rx_free: list[float] = [0.0] * nnodes

        # -- counters (plain ints on the hot path; see repro.obs) --------
        self.messages = 0
        self.msg_by_kind: Dict[str, int] = {}
        self.control_bytes = 0
        self.nic_busy_cycles = 0
        self.link_busy_cycles = 0
        self.bytes_forwarded = 0
        self.data_pulls = 0
        self.data_stall_cycles = 0
        self.hops = 0
        self.link_queue_cycles = 0

    # -- control plane ----------------------------------------------------
    def _route(self, src: int, dst: int) -> tuple[Resource, ...]:
        """The link resources a control message from *src* to *dst*
        occupies, in order (links are created on first use)."""
        links = []
        for key in self.topology.control_path(src, dst):
            link = self._links.get(key)
            if link is None:
                link = Resource(self.engine, capacity=1, name=f"link:{key}")
                self._links[key] = link
            links.append(link)
        route = self._routes[src][dst] = tuple(links)
        return route

    def transmit(
        self,
        kind: MsgKind,
        src: int,
        dst: int,
        payload_bytes: int = 0,
        on_deliver: Optional[Callable[[Any], None]] = None,
        arg: Any = None,
    ) -> None:
        """Send one *kind* message of *payload_bytes* from node *src* to
        node *dst*; ``on_deliver(arg)`` runs at the destination on arrival.

        Fire-and-forget from the sender's perspective (DDM Ready-Count
        updates need no reply); callers that want an acknowledgement send
        an explicit :attr:`~repro.net.message.MsgKind.ACK` back from
        their ``on_deliver``.
        """
        nnodes = self.nnodes
        if not (0 <= src < nnodes and 0 <= dst < nnodes):
            raise ValueError(f"message {src}->{dst} outside {nnodes} nodes")
        if src == dst:
            raise ValueError(f"message to self (node {src})")
        if payload_bytes < 0:
            raise ValueError("negative payload")
        Process(
            self.engine,
            self._transmit_proc(kind, src, dst, payload_bytes, on_deliver, arg),
            name="net",
        )

    def _transmit_proc(
        self,
        kind: MsgKind,
        src: int,
        dst: int,
        payload_bytes: int,
        on_deliver: Optional[Callable[[Any], None]],
        arg: Any,
    ) -> Generator:
        """One message: NIC hold, then per hop a link hold and the
        propagation latency, then delivery.

        A hold whose slot is free takes it here (:meth:`Resource.take`)
        and times out in this frame; one that has to queue is a
        :meth:`Resource.hold` (whose own ``take()`` fails the same way),
        which waits in the resource's queue and returns the cycles
        queued.  Either way the same events, in the same order.
        """
        params = self.params
        size = params.message_header_bytes + payload_bytes
        serialize = params.serialize_cycles(size)
        nic_hold = params.nic_overhead_cycles + serialize
        if nic_hold > 0:
            nic = self._nic_tx[src]
            if nic.take():
                try:
                    yield nic_hold
                finally:
                    nic.release()
            else:
                # Not `+= (yield from ...)`: the left side would be read
                # before the wait, and lose what others tallied during it.
                queued = yield from nic.hold(nic_hold)
                self.link_queue_cycles += int(queued)
        # Store-and-forward: each hop re-serialises onto its link and pays
        # the propagation latency.  A FullMesh path is one link — exactly
        # the historical occupy-then-propagate sequence.
        route = self._routes[src][dst] or self._route(src, dst)
        latency = params.link_latency_cycles
        for link in route:
            if serialize > 0:
                if link.take():
                    try:
                        yield serialize
                    finally:
                        link.release()
                else:
                    queued = yield from link.hold(serialize)
                    self.link_queue_cycles += int(queued)
            if latency > 0:
                yield latency
        self.messages += 1
        # Keyed by the kind's value, read without the Enum property (a
        # member also hashes in Python).
        value = kind._value_
        self.msg_by_kind[value] = self.msg_by_kind.get(value, 0) + 1
        self.control_bytes += size
        self.nic_busy_cycles += nic_hold
        self.link_busy_cycles += serialize * len(route)
        self.hops += len(route)
        if on_deliver is not None:
            on_deliver(arg)

    # -- data plane -------------------------------------------------------
    def pull(self, dst: int, per_src_bytes: Mapping[int, int]) -> int:
        """Cycles node *dst* stalls pulling operand bytes from remote owners.

        Each source's transfer serialises through *dst*'s NIC RX in FIFO
        order against earlier pulls (the ingest clock ``_rx_free``); on
        the way there it also serialises through any *shared* fabric
        links on its path (a fat-tree's pod uplinks) against all other
        traffic crossing them — the topology's bisection bandwidth.
        Dedicated-per-pair links (the whole FullMesh) never queue, so
        only the latency of the *first* hop chain and the ingest of the
        *total* matter there, exactly the historical model.
        """
        total = 0
        now = self.engine.now
        link_done = now
        max_hops = 1
        queued = 0
        for src, nbytes in per_src_bytes.items():
            if nbytes <= 0:
                continue
            if not 0 <= src < self.nnodes or src == dst:
                raise ValueError(f"bad pull source {src} for node {dst}")
            total += nbytes
            self.data_pulls += 1
            self.msg_by_kind[MsgKind.DATA_FORWARD.value] = (
                self.msg_by_kind.get(MsgKind.DATA_FORWARD.value, 0) + 1
            )
            hops = self.topology.hops(src, dst)
            if hops > max_hops:
                max_hops = hops
            self.hops += hops
            shared = self.topology.data_path(src, dst)
            if shared:
                ser = self.params.serialize_cycles(nbytes)
                t = now
                for key in shared:
                    free = self._link_free.get(key, 0.0)
                    start = free if free > t else t
                    queued += int(start - t)
                    t = start + ser
                    self._link_free[key] = t
                if t > link_done:
                    link_done = t
        if total == 0:
            return 0
        self.bytes_forwarded += total
        serialize = self.params.serialize_cycles(total)
        start = now if self._rx_free[dst] <= now else self._rx_free[dst]
        end = start + serialize
        if link_done > end:
            # The RX port cannot finish ingesting before the last shared
            # link on the way has drained the transfer.
            end = link_done
        self._rx_free[dst] = end
        stall = int(end - now) + max_hops * self.params.link_latency_cycles
        self.data_stall_cycles += stall
        self.link_queue_cycles += queued
        return stall

    # -- reporting --------------------------------------------------------
    def publish_counters(self, counters) -> None:
        net = counters.scope("net")
        net.inc("messages", self.messages)
        net.inc("control_bytes", self.control_bytes)
        net.inc("nic_busy_cycles", self.nic_busy_cycles)
        net.inc("link_busy_cycles", self.link_busy_cycles)
        net.inc("bytes_forwarded", self.bytes_forwarded)
        net.inc("data_pulls", self.data_pulls)
        net.inc("data_stall_cycles", self.data_stall_cycles)
        net.inc("hops", self.hops)
        net.inc("link_queue_cycles", self.link_queue_cycles)
        msg = net.scope("msg")
        for kind, count in sorted(self.msg_by_kind.items()):
            msg.inc(kind, count)
