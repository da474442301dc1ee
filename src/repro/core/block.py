"""DDM Blocks: TSU-sized partitions of the instance graph.

"To allow programs with arbitrarily large synchronization graphs, without
requiring equally large TSU, DDM programs can be split into DDM Blocks"
(paper §2).  Each block holds at most ``TSU capacity`` DThread instances
plus two special DThreads:

* the **Inlet**, which loads the block's metadata (Ready Counts and
  consumer lists) into the TSU, and
* the **Outlet**, which runs once every application DThread of the block
  has completed; it deallocates the TSU resources and chains to the next
  block's Inlet — or, for the last block, tells the Kernels to exit.

Blocks are cut along a topological order of the instance graph, so every
arc either stays inside one block or crosses *forward*; forward arcs are
subsumed by the Outlet→Inlet barrier (block *k+1* starts only after block
*k* completed), which over-synchronises but preserves dataflow semantics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.core.dthread import DThreadInstance, DThreadTemplate, ThreadKind
from repro.core.graph import ExpandedGraph, check_sync_counts

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

    The one holder of its arcs while loaded: the TSU indexes ``consumers``
    in place (``TSUGroup.consumers_of``) and loads only ``ready_counts``.
    """

    block_id: int
    instances: list[DThreadInstance]
    ready_counts: list[int]
    consumers: list[list[int]]
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
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in graph.consumers[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != n:
        raise ValueError("instance graph contains a cycle")
    return order


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

    blocks: list[DDMBlock] = []
    start = 0
    for b, end in enumerate(boundaries):
        members = order[start:end]
        consumers = [
            [pos[dst] - start for dst in graph.consumers[iid] if pos[dst] < end]
            for iid in members
        ]
        ready = [0] * len(members)
        for outs in consumers:
            for dst in outs:
                ready[dst] += 1
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
