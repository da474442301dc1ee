"""TFluxDist: the TSU protocol sharded across message-passing nodes.

Each node of a TFluxDist machine is a TFluxSoft-style multicore: its
kernels share one coherent memory and one dedicated TSU-Emulator core
that drains a node-local TUB (:mod:`repro.tsu.software`).  What changes
off-chip is *where post-processing lands*: a completing DThread's
consumers may have their Ready Counts in another node's SMs, and the
update must then travel as a :class:`~repro.net.message.Message` over
the :class:`~repro.net.fabric.Network` instead of a locked cache line.

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

With one node nothing is ever remote and every path above collapses to
the exact :class:`~repro.tsu.software.SoftwareTSUAdapter` code —
``tests/test_dist_differential.py`` pins the cycle counts bit-identical.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.core.block import DDMBlock
from repro.core.dthread import DThreadInstance
from repro.core.dynamic import Subflow
from repro.net.fabric import Network
from repro.net.message import INLET_ENTRY_BYTES, UPDATE_BYTES, Message, MsgKind, NetParams
from repro.net.ownermap import RegionOwnerMap
from repro.net.topology import Topology
from repro.sim.accesses import AccessSummary
from repro.sim.engine import Engine, Event, Resource
from repro.tsu.base import ProtocolAdapter
from repro.tsu.group import TSUGroup
from repro.tsu.software import SoftTSUCosts
from repro.tsu.tkt import NodeThreadToKernelTable

__all__ = ["DistTSUAdapter"]


class DistTSUAdapter(ProtocolAdapter):
    """One software-TSU shard per node; remote updates ride the network."""

    def __init__(
        self,
        engine: Engine,
        tsu: TSUGroup,
        nnodes: int,
        costs: SoftTSUCosts = SoftTSUCosts(),
        net_params: Optional[NetParams] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        super().__init__(engine, tsu)
        if not 1 <= nnodes <= tsu.nkernels:
            raise ValueError(
                f"need 1 <= nnodes <= nkernels, got nnodes={nnodes} "
                f"nkernels={tsu.nkernels}"
            )
        if nnodes > 1 and tsu.allow_stealing:
            raise ValueError(
                "work stealing pops remote SMs synchronously and cannot be "
                "modelled across nodes; use allow_stealing=False for nnodes > 1"
            )
        self.nnodes = nnodes
        self.costs = costs
        self.net = Network(engine, nnodes, net_params or NetParams(), topology)
        self._node_of_kernel = [k * nnodes // tsu.nkernels for k in range(tsu.nkernels)]
        self._node_kernels: list[list[int]] = [[] for _ in range(nnodes)]
        for k, n in enumerate(self._node_of_kernel):
            self._node_kernels[n].append(k)
        # Per-node software-TSU shard state (mirrors SoftwareTSUAdapter).
        self._tub_slots = [
            Resource(engine, capacity=costs.tub_segments, name=f"tub:{n}")
            for n in range(nnodes)
        ]
        self._queues: list[deque[tuple[int, int, object]]] = [
            deque() for _ in range(nnodes)
        ]
        self._emulator_wake: list[Optional[Event]] = [None] * nnodes
        self._emulator_started = False
        self._shutdown = False
        self.node_tkt: Optional[NodeThreadToKernelTable] = None
        # Cross-node memory pricing, wired by the platform after the
        # driver builds its memory system (the adapter is constructed
        # first — see SimulatedRuntime.__init__).
        self._memsys = None
        self._ownermap: Optional[RegionOwnerMap] = None
        # Statistics (plain ints on the hot path; see publish_counters).
        self.emulator_busy_cycles = 0
        self.emulator_items = 0
        self.emulator_updates = 0
        self.tub_pushes = 0
        self.remote_updates = 0
        self.local_updates = 0

    def attach_memory(self, memsys, line_size: int, regions) -> None:
        """Enable cross-node data forwarding (called by TFluxDist)."""
        self._memsys = memsys
        self._ownermap = RegionOwnerMap(regions, line_size, self.nnodes)

    def publish_counters(self, counters) -> None:
        emu = counters.scope("emulator")
        emu.inc("busy_cycles", self.emulator_busy_cycles)
        emu.inc("items", self.emulator_items)
        emu.inc("updates", self.emulator_updates)
        counters.inc("tub.pushes", self.tub_pushes)
        counters.inc(
            "engine.coalesced_pushes", sum(r.coalesced for r in self._tub_slots)
        )
        counters.inc("net.remote_updates", self.remote_updates)
        counters.inc("net.local_updates", self.local_updates)
        self.net.publish_counters(counters)

    # -- emulator lifecycle ------------------------------------------------
    def start(self) -> None:
        """Launch one TSU-Emulator process per node (idempotent)."""
        if not self._emulator_started:
            self._emulator_started = True
            for node in range(self.nnodes):
                self.engine.process(
                    self._emulator_proc(node), name=f"tsu-emulator:{node}"
                )

    def shutdown(self) -> None:
        self._shutdown = True
        for node in range(self.nnodes):
            self._kick_emulator(node)

    def _kick_emulator(self, node: int) -> None:
        wake = self._emulator_wake[node]
        if wake is not None and not wake.triggered:
            wake.succeed()

    def _emulator_proc(self, node: int) -> Generator:
        """One node's dedicated-core loop: drain its TUB, post-process."""
        costs = self.costs
        queue = self._queues[node]
        while True:
            if queue:
                kernel, local_iid, outcome = queue.popleft()
                nconsumers = len(self.tsu.current_block.consumers[local_iid])
                busy = costs.emulator_per_item + costs.emulator_per_update * nconsumers
                yield busy
                self.emulator_busy_cycles += busy
                self.emulator_items += 1
                self.emulator_updates += nconsumers
                self._post_process(node, kernel, local_iid, outcome)
            elif self._shutdown:
                return
            else:
                wake = Event(self.engine, name="tub-nonempty")
                self._emulator_wake[node] = wake
                yield wake
                self._emulator_wake[node] = None

    # -- post-processing ---------------------------------------------------
    def _post_process(
        self, node: int, kernel: int, local_iid: int, outcome: object = None
    ) -> None:
        if self.nnodes == 1:
            # The exact single-node code path: base wake semantics,
            # bit-identical to SoftwareTSUAdapter.
            self._apply_thread_completion(kernel, local_iid, outcome)
            return
        tkt = self.node_tkt
        assert tkt is not None
        consumers = self.tsu.current_block.consumers[local_iid]
        upd_by_node: dict[int, int] = {}
        for c in consumers:
            t = tkt.node_of(c)
            upd_by_node[t] = upd_by_node.get(t, 0) + 1
        for t, n in upd_by_node.items():
            if t == node:
                self.local_updates += n
            else:
                self.remote_updates += n

        newly_ready = self.tsu.complete_thread(kernel, local_iid, outcome)
        drained = self.tsu.phase_name in ("OUTLET_PENDING", "EXITED")

        ready_by_node: dict[int, set[int]] = {}
        for c in newly_ready:
            t, k = tkt.placement_of(c)
            ready_by_node.setdefault(t, set()).add(k)

        # Local wake now; remote wakes ride READY_UPDATE messages.
        if drained:
            self.wake_kernels(set(self._node_kernels[node]))
        elif node in ready_by_node:
            self.wake_kernels(ready_by_node[node])

        targets = set(upd_by_node) - {node}
        if drained:
            targets.update(t for t in range(self.nnodes) if t != node)
        wake_sets = {
            t: (set(self._node_kernels[t]) if drained else ready_by_node.get(t, set()))
            for t in targets
        }
        payloads = {t: max(upd_by_node.get(t, 0), 1) * UPDATE_BYTES for t in targets}
        self._fanout_ready(node, sorted(targets), payloads, wake_sets)

    def _send_ready(
        self, src: int, dst: int, payload_bytes: int, wake_set: set[int]
    ) -> None:
        self.net.transmit(
            Message(
                MsgKind.READY_UPDATE, src=src, dst=dst, payload_bytes=payload_bytes
            ),
            on_deliver=(
                (lambda msg, ks=wake_set: self.wake_kernels(ks)) if wake_set else None
            ),
        )

    def _fanout_ready(
        self,
        node: int,
        targets: list[int],
        payloads: dict[int, int],
        wake_sets: dict[int, set[int]],
    ) -> None:
        """Deliver Ready-Count updates (and their wake signals) to *targets*.

        The flat adapter sends one point-to-point message per target; the
        hierarchical adapter (:mod:`repro.tsu.hier`) overrides this to
        relay through cluster-head nodes.  Timing-only either way: the
        functional decrements already happened in ``complete_thread``.
        """
        for t in targets:
            self._send_ready(node, t, payloads[t], wake_sets[t])

    def _broadcast(self, node: int, kind: MsgKind, payload_bytes: int) -> None:
        """Send *kind* from *node* to every other node, waking each on
        arrival (Inlet/Outlet phase-change fan-out)."""
        for t in range(self.nnodes):
            if t == node:
                continue
            self.net.transmit(
                Message(kind, src=node, dst=t, payload_bytes=payload_bytes),
                on_deliver=lambda msg, ks=frozenset(self._node_kernels[t]): (
                    self.wake_kernels(set(ks))
                ),
            )

    # -- protocol costs ----------------------------------------------------
    def fetch(self, kernel: int) -> Generator:
        yield self.costs.fetch_cycles
        return self.tsu.fetch(kernel)

    def complete_inlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield self.costs.inlet_per_entry * max(block.size, 1)
        self.tsu.complete_inlet(kernel)
        assert self.tsu.tkt is not None
        self.node_tkt = NodeThreadToKernelTable.from_table(self.tsu.tkt, self.nnodes)
        if self.nnodes == 1:
            self.wake_kernels()
            return
        node = self._node_of_kernel[kernel]
        self.wake_kernels(set(self._node_kernels[node]))
        self._broadcast(
            node, MsgKind.INLET_BCAST, INLET_ENTRY_BYTES * max(block.size, 1)
        )

    def resolve_dynamic(
        self, kernel: int, local_iid: int, outcome: object
    ) -> Generator:
        # Same local pricing as TFluxSoft: the spawn descriptor is a
        # second TUB-sized push on the completing kernel's node.  Remote
        # nodes learn the new block's metadata through the ordinary
        # INLET_BCAST when it loads — already priced in complete_inlet.
        if isinstance(outcome, Subflow):
            yield self.costs.tub_push_cycles

    def complete_thread(
        self,
        kernel: int,
        local_iid: int,
        instance: DThreadInstance,
        outcome: object = None,
    ) -> Generator:
        # Push into the *node-local* TUB — same segment try-lock protocol
        # as SoftwareTSUAdapter.complete_thread.
        node = self._node_of_kernel[kernel]
        yield from self._tub_slots[node].hold(self.costs.tub_push_cycles)
        self._queues[node].append((kernel, local_iid, outcome))
        self.tub_pushes += 1
        self._kick_emulator(node)

    def complete_outlet(self, kernel: int, block: DDMBlock) -> Generator:
        yield self.costs.outlet_cycles
        self.tsu.complete_outlet(kernel)
        if self.nnodes == 1:
            self.wake_kernels()
            return
        node = self._node_of_kernel[kernel]
        self.wake_kernels(set(self._node_kernels[node]))
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

                def deliver_terminate(msg: Message, t=t, ack=ack) -> None:
                    self.wake_kernels(set(self._node_kernels[t]))
                    self.net.transmit(
                        Message(MsgKind.ACK, src=t, dst=node),
                        on_deliver=lambda m, ack=ack: ack.succeed(),
                    )

                self.net.transmit(
                    Message(MsgKind.TERMINATE, src=node, dst=t),
                    on_deliver=deliver_terminate,
                )
            if acks:
                yield self.engine.all_of(acks, name="termination-barrier")
        else:
            self._broadcast(node, MsgKind.OUTLET_BCAST, 0)

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
