"""DDM Blocks: TSU-sized partitions of the instance graph.

"To allow programs with arbitrarily large synchronization graphs, without
requiring equally large TSU, DDM programs can be split into DDM Blocks"
(paper §2).  Each block holds at most ``TSU capacity`` DThread instances
plus two special DThreads:

* the **Inlet**, which loads the block's metadata (Ready Counts and
  consumer runs) into the TSU, and
* the **Outlet**, which runs once every application DThread of the block
  has completed; it deallocates the TSU resources and chains to the next
  block's Inlet — or, for the last block, tells the Kernels to exit.

Blocks are cut along a topological order of the instance graph, so every
arc either stays inside one block or crosses *forward*; forward arcs are
subsumed by the Outlet→Inlet barrier (block *k+1* starts only after block
*k* completed), which over-synchronises but preserves dataflow semantics.
A block re-bases the graph's consumer runs onto its local ids: a run
keeps its in-block members, is cut where they stop being consecutive in
the topological order, and counts its in-block producers only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.core.dthread import DThreadInstance, DThreadTemplate, ThreadKind
from repro.core.graph import ConsumerRuns, ExpandedGraph, check_sync_counts

__all__ = ["DDMBlock", "split_into_blocks", "INLET_BASE_TID"]

#: Template ids for generated Inlet/Outlet threads start here, far above
#: anything an application (or the preprocessor) allocates.
INLET_BASE_TID = 1_000_000


@dataclass
class DDMBlock:
    """One TSU-loadable unit: a slice of the instance graph.

    Instance ids are *local* to the block (dense, 0-based); ``instances``
    maps the local id to the original :class:`DThreadInstance`.  The inlet
    and outlet occupy the two ids past the application instances.

    The one holder of its arcs while loaded: the TSU reads ``consumers``
    in place (``TSUGroup.consumers_of``) and loads only ``ready_counts``.
    """

    block_id: int
    instances: list[DThreadInstance]
    ready_counts: list[int]
    consumers: ConsumerRuns
    entry: list[int]
    inlet: DThreadInstance = field(init=False)
    outlet: DThreadInstance = field(init=False)
    is_last: bool = False

    def __post_init__(self) -> None:
        n = len(self.instances)
        inlet_tmpl = DThreadTemplate(
            tid=INLET_BASE_TID + 2 * self.block_id,
            name=f"inlet.{self.block_id}",
            kind=ThreadKind.INLET,
        )
        outlet_tmpl = DThreadTemplate(
            tid=INLET_BASE_TID + 2 * self.block_id + 1,
            name=f"outlet.{self.block_id}",
            kind=ThreadKind.OUTLET,
        )
        self.inlet = DThreadInstance(n, inlet_tmpl, 0)
        self.outlet = DThreadInstance(n + 1, outlet_tmpl, 0)

    @property
    def size(self) -> int:
        """Application instances in the block (excludes inlet/outlet)."""
        return len(self.instances)

    def check_invariants(self) -> None:
        check_sync_counts(self.ready_counts, self.consumers, self.entry)


def _topological_order(graph: ExpandedGraph) -> list[int]:
    """Kahn's algorithm over the instance graph (deterministic).  Kept
    apart from ``core/deps.py::_topo_order``: this FIFO order fixes block
    membership (so every cycle), that LIFO one the checker's finding order."""
    n = graph.ninstances
    indeg = list(graph.ready_counts)
    queue = deque(iid for iid in range(n) if indeg[iid] == 0)
    order: list[int] = []
    consumers = graph.consumers
    out, runs, producers = consumers.out, consumers.runs, consumers.producers
    hits = [0] * len(runs)
    while queue:
        u = queue.popleft()
        order.append(u)
        for r in out[u]:
            hits[r] += 1
            if hits[r] == producers[r]:
                tokens = producers[r]
                for v in runs[r]:
                    indeg[v] -= tokens
                    if indeg[v] == 0:
                        queue.append(v)
    if len(order) != n:
        raise ValueError("instance graph contains a cycle")
    return order


def _rebase(run: range, pos: list[int], start: int, end: int) -> list[range]:
    """Local ids of *run*'s members in the block ``[start, end)`` of the
    order, member order kept, cut wherever they stop being consecutive."""
    pieces: list[range] = []
    first = last = None
    for m in run:
        p = pos[m]
        if p >= end:
            continue  # crosses forward into a later block
        if last is None or p != last + 1:
            if last is not None:
                pieces.append(range(first - start, last + 1 - start))
            first = p
        last = p
    if last is not None:
        pieces.append(range(first - start, last + 1 - start))
    return pieces


def split_into_blocks(
    graph: ExpandedGraph,
    tsu_capacity: Optional[int] = None,
    first_block_id: int = 0,
    mark_last: bool = True,
) -> list[DDMBlock]:
    """Cut the expanded graph into DDM Blocks of at most *tsu_capacity*
    application DThreads each (``None`` = one block for the whole graph).

    *first_block_id* offsets the block ids (and thereby the generated
    Inlet/Outlet template ids): dynamically spawned subflows must not
    collide with the static blocks already scheduled.  *mark_last* is
    disabled for spawned blocks — a dynamic block never terminates the
    program; the TSU exits on position, not on the flag.
    """
    n = graph.ninstances
    if tsu_capacity is None or tsu_capacity >= n:
        boundaries = [n]
    else:
        if tsu_capacity < 1:
            raise ValueError("tsu_capacity must be >= 1")
        boundaries = list(range(tsu_capacity, n, tsu_capacity)) + [n]

    order = _topological_order(graph)
    # Arcs run forward in `order`: for a member of [start, end), "dst is
    # in this block" is pos[dst] < end, its local id pos[dst] - start;
    # the rest cross forward and the Outlet -> Inlet barrier enforces them.
    pos = [0] * n
    for p, iid in enumerate(order):
        pos[iid] = p

    graph_out, graph_runs = graph.consumers.out, graph.consumers.runs
    blocks: list[DDMBlock] = []
    start = 0
    for b, end in enumerate(boundaries):
        members = order[start:end]
        consumers = ConsumerRuns(len(members))
        pieces: dict[int, list[int]] = {}  # graph run -> its block runs
        for local, iid in enumerate(members):
            for r in graph_out[iid]:
                ids = pieces.get(r)
                if ids is None:
                    ids = pieces[r] = [
                        consumers.add_run(piece)
                        for piece in _rebase(graph_runs[r], pos, start, end)
                    ]
                for run in ids:
                    consumers.feed(local, run)
        ready = consumers.indegrees()
        blocks.append(
            DDMBlock(
                block_id=first_block_id + b,
                instances=[graph.instances[iid] for iid in members],
                ready_counts=ready,
                consumers=consumers,
                entry=[i for i, rc in enumerate(ready) if rc == 0],
            )
        )
        start = end
    if blocks and mark_last:
        blocks[-1].is_last = True
    return blocks
