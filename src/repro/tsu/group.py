"""The TSU Group: the functional scheduling state machine.

"In TFlux we decided to group the TSUs in a single unit named the TSU
Group.  The units of the TSU Group are split into two categories: those
that serve the CPU that the TSU corresponds to and those that are common
for all CPUs" (paper §3.3).  Here the per-CPU units are the
per-kernel :class:`~repro.tsu.sm.SynchronizationMemory` objects and the
common units are the block sequencer, the Thread-to-Kernel Table, and the
completion counters.

This class is *functional only* — it implements exactly what the TSU does,
with no notion of time.  The hardware, software and Cell implementations
wrap it with their own cost/latency adapters, which is precisely the
paper's virtualization claim: same scheduling semantics, different
mechanism.

Protocol (driven by the Kernels through the platform adapters):

1. ``fetch(kernel)`` → a :class:`Fetch` describing what the kernel should
   do next: run the current block's Inlet, run an application DThread,
   run the Outlet, wait, or exit.
2. After an application DThread finishes, ``complete_thread(kernel, local_iid)``
   performs the Post-Processing Phase: each consumer run the thread
   feeds counts the retirement, and a run whose last producer retired
   decrements its members' Ready Counts, by its producer count, through
   the TKT-indexed SM; threads reaching zero join their kernel's ready
   queue (``_post_process``, the one such walk whichever way an instance
   retires).
3. ``complete_inlet`` / ``complete_outlet`` drive block sequencing:
   the Outlet clears the SMs and (unless the block was the last) arms the
   next block's Inlet; the last Outlet flips the TSU into the exit state.

Dynamic graphs extend step 2: ``complete_thread`` carries the DThread's
*outcome*.  A :class:`~repro.core.dynamic.Subflow` outcome expands into a
fresh graph epoch, is cut into capacity-sized blocks with globally unique
ids, and queued; the next Outlet splices the queued blocks directly after
the current one, so spawned work runs before the remaining static blocks
and the TSU exits only when no block — static or spawned — remains.  A
branch-key outcome resolves the instance's conditional arcs through its
epoch (:class:`~repro.core.dynamic.GraphEpoch`): squashed instances in
the current block are retired on the spot (counting toward block
completion, phantom-decrementing their consumers), squashed instances in
future blocks are retired at load time by their block's Inlet.

A loaded block's arcs have one holder, the :class:`~repro.core.block.DDMBlock`:
the Inlet loads Ready Counts and flags into the SMs and builds the TKT,
it copies no consumer run.  This class and the adapters that price a
completion by its fan-out read them through ``consumers_of`` and
``fanout`` only.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, NamedTuple, Optional

from repro.core.block import DDMBlock, split_into_blocks
from repro.core.dthread import DThreadInstance
from repro.core.dynamic import GraphEpoch, Subflow
from repro.core.graph import ExpandedGraph
from repro.tsu.policy import PlacementPolicy, contiguous_placement
from repro.tsu.sm import SynchronizationMemory, ThreadEntry
from repro.tsu.tkt import ThreadToKernelTable

__all__ = ["FetchKind", "Fetch", "FETCH_EXIT", "FETCH_WAIT", "TSUGroup"]


class FetchKind(enum.Enum):
    """What the TSU tells a querying kernel to do."""

    INLET = "inlet"
    THREAD = "thread"
    OUTLET = "outlet"
    WAIT = "wait"
    EXIT = "exit"


class Fetch(NamedTuple):
    """The TSU's reply to one FindReadyThread.  A named tuple: the TSU
    builds one per query, and a tuple is immutable without a per-field
    ``object.__setattr__``."""

    kind: FetchKind
    instance: Optional[DThreadInstance] = None
    local_iid: Optional[int] = None
    block: Optional[DDMBlock] = None


#: The two replies that carry nothing but their kind, shared by every query.
FETCH_WAIT = Fetch(FetchKind.WAIT)
FETCH_EXIT = Fetch(FetchKind.EXIT)


class _Phase(enum.Enum):
    INLET_PENDING = 0  # waiting for some kernel to claim & run the Inlet
    LOADING = 1  # inlet claimed, metadata loading in progress
    RUNNING = 2
    OUTLET_PENDING = 3
    FINISHING = 4  # outlet claimed, clearing in progress
    EXITED = 5


class TSUGroup:
    """Scheduling state machine over a program's DDM Blocks."""

    def __init__(
        self,
        nkernels: int,
        blocks: list[DDMBlock],
        placement: PlacementPolicy = contiguous_placement,
        allow_stealing: bool = False,
        root_graph: Optional[ExpandedGraph] = None,
        tsu_capacity: Optional[int] = None,
    ) -> None:
        if nkernels < 1:
            raise ValueError("need at least one kernel")
        if not blocks:
            raise ValueError("program has no blocks")
        self.nkernels = nkernels
        self.blocks = blocks
        self.placement = placement
        #: §3.1 reads the TSU's reply as "one of the ready DThreads",
        #: locality-preferring: with stealing enabled, an idle kernel may
        #: be handed a ready DThread from another kernel's SM instead of
        #: waiting.  Off by default (strictly SM-local dispatch).
        self.allow_stealing = allow_stealing
        self.sms = [SynchronizationMemory(k) for k in range(nkernels)]
        self.tkt: Optional[ThreadToKernelTable] = None

        self._block_idx = 0
        #: ``blocks[_block_idx]`` and its graph epoch (``None`` for a
        #: hand-built block list), read once per call on the hot path;
        #: the epoch is looked up when the block loads.
        self._block = blocks[0]
        self._epoch: Optional[GraphEpoch] = None
        self._phase = _Phase.INLET_PENDING
        self._completed_in_block = 0
        # Dynamic-graph state.  Every block belongs to a graph epoch
        # (the statically expanded program, or one spawned subflow);
        # epochs carry the conditional-arc/squash bookkeeping.  Spawned
        # blocks queue here until the running block's Outlet splices
        # them in.  Drivers that never use dynamic features may omit
        # root_graph (hand-built block lists in tests): spawning still
        # works, conditional arcs then only exist inside subflows.
        self.tsu_capacity = tsu_capacity
        self._epoch_of_block: dict[int, GraphEpoch] = {}
        if root_graph is not None:
            root_epoch = GraphEpoch(root_graph)
            for blk in blocks:
                self._epoch_of_block[blk.block_id] = root_epoch
        self._next_block_id = max(b.block_id for b in blocks) + 1
        self._pending_dynamic: deque[DDMBlock] = deque()
        self._local_of_current: dict[int, int] = {}
        #: Retirements each of the loaded block's consumer runs has seen.
        self._run_hits: list[int] = []
        # Statistics: plain ints on the hot path, published into the
        # repro.obs counter registry at end of run (publish_counters).
        self.fetches = 0
        self.waits = 0
        self.post_updates = 0
        self.threads_dispatched = 0
        self.steals = 0
        self.spawned_subflows = 0
        self.dynamic_blocks = 0
        self.squashed_threads = 0

    def publish_counters(self, counters) -> None:
        """Publish scheduling counters under the ``tsu.`` namespace."""
        scope = counters.scope("tsu")
        scope.inc("fetches", self.fetches)
        scope.inc("waits", self.waits)
        scope.inc("post_updates", self.post_updates)
        scope.inc("dispatched", self.threads_dispatched)
        scope.inc("steals", self.steals)
        scope.inc("spawns", self.spawned_subflows)
        scope.inc("dynamic_blocks", self.dynamic_blocks)
        scope.inc("squashed", self.squashed_threads)

    # -- helpers -----------------------------------------------------------
    @property
    def current_block(self) -> DDMBlock:
        return self._block

    @property
    def block_drained(self) -> bool:
        """Every application DThread of the current block has retired
        (its Outlet is due, or the program is over): all kernels wake."""
        return self._phase in (_Phase.OUTLET_PENDING, _Phase.EXITED)

    def is_exited(self) -> bool:
        return self._phase == _Phase.EXITED

    def consumers_of(self, local_iid: int) -> list[range]:
        """Block-local ids of the instances *local_iid* feeds in the
        loaded block, as the block's own runs (a barrier's run is one
        ``range`` shared by every producer, not a copy)."""
        return self._block.consumers.runs_of(local_iid)

    def fanout(self, local_iid: int) -> int:
        """Ready Counts one retirement of *local_iid* updates in the
        loaded block: its instance pairs, whatever runs carry them."""
        return self._block.consumers.fanouts[local_iid]

    # -- the Inlet's work ---------------------------------------------------------
    def _load_block(self, block: DDMBlock) -> None:
        """What the Inlet DThread does: load all metadata into the SMs.

        Instances whose branch already resolved against them while an
        earlier block ran (their epoch marked them squashed) load
        pre-squashed and retire immediately: they count toward block
        completion and phantom-decrement their in-block consumers.
        """
        assignment = self.placement(block, self.nkernels)
        self.tkt = ThreadToKernelTable(assignment, self.nkernels)
        self._epoch = epoch = self._epoch_of_block.get(block.block_id)
        need_index = epoch is not None and (epoch.has_cond or epoch.squashed)
        self._local_of_current = {}
        self._run_hits = [0] * len(block.consumers.runs)
        presquashed: list[int] = []
        for local_iid, inst in enumerate(block.instances):
            entry = ThreadEntry(
                local_iid=local_iid,
                instance=inst,
                ready_count=block.ready_counts[local_iid],
            )
            if epoch is not None and inst.iid in epoch.squashed:
                entry.squashed = True
                entry.completed = True
                presquashed.append(local_iid)
            self.sms[assignment[local_iid]].load(entry)
            if need_index:
                self._local_of_current[inst.iid] = local_iid
        self.squashed_threads += len(presquashed)
        self._completed_in_block = len(presquashed)
        for local_iid in presquashed:
            # Whoever this readies is already on its SM's queue; nobody
            # is waiting for a wake before the Inlet completes.
            self._post_process(local_iid, [])

    def _post_process(self, local_iid: int, newly_ready: list[int]) -> None:
        """Post-Processing of one retired instance: each run it completes
        decrements its members' Ready Counts, by the run's producer
        count, in the SM the TKT names; the ones reaching zero are
        appended to *newly_ready*.  ``post_updates`` counts one update
        per instance pair, as the hardware performs them."""
        sms, kernel_of = self.sms, self.tkt.kernel_of
        consumers, hits = self._block.consumers, self._run_hits
        runs, producers = consumers.runs, consumers.producers
        for r in consumers.out[local_iid]:
            hits[r] += 1
            tokens = producers[r]
            if hits[r] < tokens:
                continue  # a shared run waits for its last producer
            if hits[r] > tokens:
                # Retired more often than it has producers: deliver what
                # a per-pair walk would, and let the SM's underflow check
                # see it.
                tokens = 1
            for consumer in runs[r]:
                if sms[kernel_of(consumer)].decrement(consumer, tokens):
                    newly_ready.append(consumer)
        self.post_updates += consumers.fanouts[local_iid]

    # -- kernel-facing protocol ---------------------------------------------------
    def fetch(self, kernel: int) -> Fetch:
        """FindReadyThread: what should *kernel* execute next?"""
        self.fetches += 1
        if self._phase == _Phase.EXITED:
            return FETCH_EXIT

        if self._phase == _Phase.INLET_PENDING:
            # First querying kernel claims the Inlet.
            self._phase = _Phase.LOADING
            block = self._block
            return Fetch(FetchKind.INLET, instance=block.inlet, block=block)

        if self._phase == _Phase.RUNNING:
            entry = self.sms[kernel].pop_ready()
            if entry is None and self.allow_stealing:
                victim = max(self.sms, key=SynchronizationMemory.peek_ready)
                entry = victim.pop_ready()
                if entry is not None:
                    self.steals += 1
            if entry is not None:
                self.threads_dispatched += 1
                return Fetch(
                    FetchKind.THREAD, entry.instance, entry.local_iid, self._block
                )
            self.waits += 1
            return FETCH_WAIT

        if self._phase == _Phase.OUTLET_PENDING:
            self._phase = _Phase.FINISHING
            block = self._block
            return Fetch(FetchKind.OUTLET, instance=block.outlet, block=block)

        # LOADING / FINISHING: another kernel is running the Inlet/Outlet.
        self.waits += 1
        return FETCH_WAIT

    def has_work(self, kernel: int) -> bool:
        """Cheap peek: would a fetch by *kernel* return something other
        than WAIT right now?  Backends call this from their ``wait`` step
        to close the lost-wakeup window between a (possibly delayed) WAIT
        reply and parking — step 2 of the wake discipline documented in
        :mod:`repro.runtime.core`."""
        if self._phase in (_Phase.INLET_PENDING, _Phase.OUTLET_PENDING, _Phase.EXITED):
            return True
        if self._phase == _Phase.RUNNING:
            if self.sms[kernel].peek_ready():
                return True
            return self.allow_stealing and any(
                sm.peek_ready() for sm in self.sms
            )
        return False

    def complete_inlet(self, kernel: int) -> None:
        if self._phase != _Phase.LOADING:
            raise RuntimeError(f"inlet completion in phase {self._phase}")
        block = self._block
        self._load_block(block)
        # A block with no live application DThreads (empty hand-built
        # block lists, or every instance squashed-at-load) must fall
        # straight through to its Outlet rather than stall in RUNNING.
        if self._completed_in_block >= block.size:
            self._phase = _Phase.OUTLET_PENDING
        else:
            self._phase = _Phase.RUNNING

    def complete_thread(
        self, kernel: int, local_iid: int, outcome: Any = None
    ) -> list[int]:
        """Post-Processing Phase; returns consumers that became ready.

        *outcome* is the completed DThread's body return value: ``None``
        for static threads, a :class:`~repro.core.dynamic.Subflow` to
        spawn, any other value a branch key for the thread's conditional
        arcs.  Branch resolution (squash marking + retirement) happens
        before the consumer sweep so dead targets absorb their
        decrements instead of firing.
        """
        if self._phase != _Phase.RUNNING:
            raise RuntimeError(f"thread completion in phase {self._phase}")
        assert self.tkt is not None
        self.sms[self.tkt.kernel_of(local_iid)].mark_completed(local_iid)
        newly_ready: list[int] = []
        block, epoch = self._block, self._epoch
        if epoch is not None and epoch.has_cond:
            giid = block.instances[local_iid].iid
            key = None if isinstance(outcome, Subflow) else outcome
            newly_squashed = epoch.resolve(giid, key)
            if newly_squashed:
                self._retire_squashed(newly_squashed, newly_ready)
        self._post_process(local_iid, newly_ready)
        if isinstance(outcome, Subflow):
            self._spawn(outcome)
        self._completed_in_block += 1
        if self._completed_in_block == len(block.instances):
            self._phase = _Phase.OUTLET_PENDING
        return newly_ready

    def _retire_squashed(
        self, giids: list[int], newly_ready: list[int]
    ) -> None:
        """Retire newly squashed instances that live in the current block.

        Two passes: mark every in-block victim first (so the phantom
        decrements below no-op on siblings squashed by the same
        resolution), then count them completed and phantom-decrement
        their consumers — survivors with other live inputs may become
        ready.  Victims in future blocks stay in their epoch's squash
        set and retire at load time.
        """
        assert self.tkt is not None
        retired: list[int] = []
        for giid in giids:
            local_iid = self._local_of_current.get(giid)
            if local_iid is None:
                continue  # future block: squash-at-load
            self.sms[self.tkt.kernel_of(local_iid)].squash(local_iid)
            retired.append(local_iid)
        self.squashed_threads += len(retired)
        self._completed_in_block += len(retired)
        for local_iid in retired:
            self._post_process(local_iid, newly_ready)

    def _spawn(self, subflow: Subflow) -> None:
        """Expand a spawned subflow into queued dynamic blocks."""
        graph = subflow.expand()
        epoch = GraphEpoch(graph)
        blocks = split_into_blocks(
            graph,
            self.tsu_capacity,
            first_block_id=self._next_block_id,
            mark_last=False,
        )
        self._next_block_id += len(blocks)
        for blk in blocks:
            self._epoch_of_block[blk.block_id] = epoch
            self._pending_dynamic.append(blk)
        self.spawned_subflows += 1
        self.dynamic_blocks += len(blocks)

    def complete_outlet(self, kernel: int) -> None:
        if self._phase != _Phase.FINISHING:
            raise RuntimeError(f"outlet completion in phase {self._phase}")
        for sm in self.sms:
            sm.clear()
        # Splice blocks spawned during this block directly after it:
        # dynamic work runs before the remaining static blocks, and a
        # dynamic block's own spawns nest the same way (depth-first).
        if self._pending_dynamic:
            for offset, blk in enumerate(self._pending_dynamic):
                self.blocks.insert(self._block_idx + 1 + offset, blk)
            self._pending_dynamic.clear()
        # Exit on position, not on the is_last flag: spawned blocks may
        # now follow the statically last block.
        if self._block_idx == len(self.blocks) - 1:
            self._phase = _Phase.EXITED
        else:
            self._block_idx += 1
            self._block = self.blocks[self._block_idx]
            self._phase = _Phase.INLET_PENDING

    # -- invariants (property tests) -------------------------------------------------
    def check_invariants(self) -> None:
        if self._phase == _Phase.RUNNING:
            total = sum(len(sm._entries) for sm in self.sms)
            assert total == self.current_block.size, (
                f"loaded entries {total} != block size {self.current_block.size}"
            )
            assert self.tkt is not None
            for local_iid, initial in enumerate(self.current_block.ready_counts):
                e = self.sms[self.tkt.kernel_of(local_iid)]._entries[local_iid]
                assert 0 <= e.ready_count <= initial
