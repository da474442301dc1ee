"""TFluxDist: the TSU protocol sharded across message-passing nodes.

Each node of a TFluxDist machine is a TFluxSoft-style multicore: its
kernels share one coherent memory and one dedicated TSU-Emulator core
that drains a node-local TUB (:mod:`repro.tsu.software`).  What changes
off-chip is *where post-processing lands*: a completing DThread's
consumers may have their Ready Counts in another node's SMs, and the
update must then travel as a message over the
:class:`~repro.net.fabric.Network` instead of a locked cache line.

The :class:`~repro.tsu.group.TSUGroup` state machine is **never forked**
(the repo-wide invariant): one group spans all kernels of all nodes, and
this adapter — like every other platform adapter — adds costs only.  Two
deliberate simplifications, both timing-side and both following the
documented :mod:`repro.tsu.multigroup` precedent:

* Ready-Count decrements apply *functionally* when the producing node's
  emulator drains the completion; only the **wake signal** to a remote
  kernel pays NIC + link + latency.  A remote kernel that is already
  awake for other reasons may therefore observe ready work up to ~one
  message latency early — never late, and never functionally wrong.
* Each node's kernels price their loads/stores through the machine's
  coherent cache model as usual; the network adds the *cross-node* cost
  on top: lines last written by a remote node are pulled through the
  :class:`~repro.net.ownermap.RegionOwnerMap` and the destination NIC's
  ingest clock before the DThread can run.

The node-local half is not re-typed here: the adapter *is* a
:class:`~repro.tsu.software.SoftwareTSUAdapter` whose kernels push to
their own node's :class:`~repro.tsu.software.EmulatorShard` (fetch,
spawn pricing, TUB push, emulator drain loop and its tallies are
inherited).  This module holds only what is distributed: post-processing
that fans Ready-Count updates out over the network, node-scoped
Inlet/Outlet wakes, the TERMINATE/ACK barrier and cross-node operand
pricing.  With one node nothing is ever remote and every path collapses
to the TFluxSoft one — ``tests/test_dist_differential.py`` keeps the two
bit-identical (cycles, counters, spans) as a guard.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional

from repro.core.block import DDMBlock
from repro.core.dthread import DThreadInstance
from repro.net.fabric import Network
from repro.net.message import INLET_ENTRY_BYTES, UPDATE_BYTES, MsgKind, NetParams
from repro.net.ownermap import RegionOwnerMap
from repro.net.topology import Topology
from repro.sim.accesses import AccessSummary
from repro.sim.engine import Engine, Event
from repro.tsu.group import TSUGroup
from repro.tsu.software import EmulatorShard, SoftTSUCosts, SoftwareTSUAdapter
from repro.tsu.tkt import contiguous_partition

__all__ = ["DistTSUAdapter"]


class DistTSUAdapter(SoftwareTSUAdapter):
    """One software-TSU shard per node; remote updates ride the network."""

    def __init__(
        self,
        engine: Engine,
        tsu: TSUGroup,
        nnodes: int,
        costs: SoftTSUCosts,
        net_params: Optional[NetParams] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        super().__init__(engine, tsu, costs)
        # Refuses nnodes < 1 and nnodes > nkernels.
        self._node_of_kernel = contiguous_partition(tsu.nkernels, nnodes)
        if nnodes > 1 and tsu.allow_stealing:
            raise ValueError(
                "work stealing pops remote SMs synchronously and cannot be "
                "modelled across nodes; use allow_stealing=False for nnodes > 1"
            )
        self.nnodes = nnodes
        self.net = Network(engine, nnodes, net_params or NetParams(), topology)
        self.topology = self.net.topology.describe()
        self._node_kernels: list[list[int]] = [[] for _ in range(nnodes)]
        for k, n in enumerate(self._node_of_kernel):
            self._node_kernels[n].append(k)
        # One emulator shard per node, in place of TFluxSoft's single one;
        # a shard only ever drains completions of its own node's kernels.
        self.shards = [
            EmulatorShard(engine, tsu, costs, name=f":{n}")
            for n in range(nnodes)
        ]
        # Cross-node memory pricing needs the driver's memory system,
        # which is built after the adapter (see attach_memory).
        self._memsys = None
        self._ownermap: Optional[RegionOwnerMap] = None
        # Statistics (plain ints on the hot path; see publish_counters).
        self.remote_updates = 0
        self.local_updates = 0

    def _shard(self, kernel: int) -> EmulatorShard:
        return self.shards[self._node_of_kernel[kernel]]

    def attach_memory(self, memsys, line_size: int, regions) -> None:
        """Enable cross-node data forwarding."""
        self._memsys = memsys
        self._ownermap = RegionOwnerMap(regions, line_size, self.nnodes)

    def publish_counters(self, counters) -> None:
        super().publish_counters(counters)
        counters.inc("net.remote_updates", self.remote_updates)
        counters.inc("net.local_updates", self.local_updates)
        self.net.publish_counters(counters)

    # -- post-processing ---------------------------------------------------
    def _post_process(self, kernel: int, local_iid: int, outcome: object) -> None:
        """What a node's emulator does with one drained completion."""
        if self.nnodes == 1:
            # The exact single-node code path: base wake semantics,
            # bit-identical to SoftwareTSUAdapter.
            self._apply_thread_completion(kernel, local_iid, outcome)
            return
        tsu = self.tsu
        node_of_kernel = self._node_of_kernel
        node = node_of_kernel[kernel]
        assert tsu.tkt is not None
        # The block's TKT says whose SM, the partition which node's shard.
        kernel_of = tsu.tkt.kernel_of
        updates = [0] * self.nnodes
        for members in tsu.consumers_of(local_iid):
            for c in members:
                updates[node_of_kernel[kernel_of(c)]] += 1
        self.local_updates += updates[node]
        self.remote_updates += sum(updates) - updates[node]

        newly_ready = tsu.complete_thread(kernel, local_iid, outcome)
        drained = tsu.block_drained

        # Local wake now; remote wakes ride READY_UPDATE messages: every
        # kernel of every node once the block drained, else the kernels
        # of each node whose consumers became ready.
        node_kernels = self._node_kernels
        ready_by_node: Optional[dict[int, set[int]]] = None
        if drained:
            self.wake_kernels(node_kernels[node])
        elif newly_ready:
            ready_by_node = {}
            for c in newly_ready:
                k = kernel_of(c)
                ready_by_node.setdefault(node_of_kernel[k], set()).add(k)
            if node in ready_by_node:
                self.wake_kernels(ready_by_node[node])

        sends = []
        for t, n in enumerate(updates):
            if t == node or not (n or drained):
                continue
            if drained:
                wake = node_kernels[t]
            else:
                wake = ready_by_node.get(t) if ready_by_node else None
            sends.append((t, max(n, 1) * UPDATE_BYTES, wake))
        if sends:
            self._fanout_ready(node, sends)

    def _send_ready(
        self, src: int, dst: int, payload_bytes: int, wake: Optional[Iterable[int]]
    ) -> None:
        """One READY_UPDATE; *wake* (kernels of *dst*, or ``None``) wake
        when it lands."""
        self.net.transmit(
            MsgKind.READY_UPDATE, src, dst, payload_bytes,
            self.wake_kernels if wake else None, wake,
        )

    def _fanout_ready(
        self, node: int, sends: list[tuple[int, int, Optional[Iterable[int]]]]
    ) -> None:
        """Deliver Ready-Count updates (and their wake signals): *sends*
        holds one ``(target node, payload bytes, kernels to wake)`` per
        target, in ascending node order.

        The flat adapter sends one point-to-point message per target; the
        hierarchical adapter (:mod:`repro.tsu.hier`) overrides this to
        relay through cluster-head nodes.  Timing-only either way: the
        functional decrements already happened in ``complete_thread``.
        """
        for t, payload_bytes, wake in sends:
            self._send_ready(node, t, payload_bytes, wake)

    def _broadcast(self, node: int, kind: MsgKind, payload_bytes: int) -> None:
        """Send *kind* from *node* to every other node, waking each on
        arrival (Inlet/Outlet phase-change fan-out)."""
        for t in range(self.nnodes):
            if t != node:
                self._send_wakeup(node, t, kind, payload_bytes)

    def _send_wakeup(
        self, src: int, dst: int, kind: MsgKind, payload_bytes: int
    ) -> None:
        """The one wake-on-delivery sender: *dst*'s kernels wake when
        the message lands."""
        self.net.transmit(
            kind, src, dst, payload_bytes, self.wake_kernels, self._node_kernels[dst]
        )

    # -- protocol costs ----------------------------------------------------
    def complete_inlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield self.costs.inlet_per_entry * max(block.size, 1)
        self.tsu.complete_inlet(kernel)
        if self.nnodes == 1:
            self.wake_kernels()
            return
        node = self._node_of_kernel[kernel]
        self.wake_kernels(self._node_kernels[node])
        self._broadcast(
            node, MsgKind.INLET_BCAST, INLET_ENTRY_BYTES * max(block.size, 1)
        )

    def complete_outlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield self.costs.outlet_cycles
        self.tsu.complete_outlet(kernel)
        if self.nnodes == 1:
            self.wake_kernels()
            return
        node = self._node_of_kernel[kernel]
        self.wake_kernels(self._node_kernels[node])
        if self.tsu.is_exited():
            # Distributed termination barrier: the node that ran the last
            # Outlet tells every other node to drain; it may not exit
            # until all have acknowledged (TERMINATE/ACK round trips).
            acks = []
            for t in range(self.nnodes):
                if t == node:
                    continue
                ack = self.engine.event(name=f"term-ack:{t}")
                acks.append(ack)
                self.net.transmit(
                    MsgKind.TERMINATE, node, t, 0, self._acknowledge, (t, node, ack)
                )
            if acks:
                yield self.engine.all_of(acks, name="termination-barrier")
        else:
            self._broadcast(node, MsgKind.OUTLET_BCAST, 0)

    def _acknowledge(self, terminate: tuple[int, int, Event]) -> None:
        """A TERMINATE landed on node *t*: its kernels wake to drain and
        exit, and its ACK travels back to the barrier's node."""
        t, node, ack = terminate
        self.wake_kernels(self._node_kernels[t])
        self.net.transmit(MsgKind.ACK, t, node, 0, Event.succeed, ack)

    # -- memory pricing ----------------------------------------------------
    def thread_memory_cycles(
        self, kernel: int, instance: DThreadInstance, summary: AccessSummary
    ) -> Optional[int]:
        """Coherent-cache cost plus cross-node operand pulls.

        ``None`` with one node (or before ``attach_memory``) defers to
        the driver's own pricing — the exact TFluxSoft path.
        """
        if self.nnodes == 1 or self._memsys is None:
            return None
        assert self._ownermap is not None
        base = int(self._memsys.run_summary(kernel, summary))
        node = self._node_of_kernel[kernel]
        pulls = self._ownermap.access(node, summary)
        if pulls:
            return base + self.net.pull(node, pulls)
        return base
