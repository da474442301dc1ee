"""Line-granular cross-node ownership: who must forward what to whom.

In TFluxDist every node is a TFluxSoft-style shared-memory machine, but
*between* nodes there is no coherence — a DThread scheduled on node B that
reads lines last written by a DThread on node A must have those lines
forwarded over the network.  The apps already declare exactly what every
DThread touches (:class:`~repro.sim.accesses.AccessSummary`), so the owner
map replays those declarations at cache-line granularity:

* a **write** makes the writing node the owner of the line and invalidates
  every other node's copy;
* a **read** of a line owned elsewhere (and not already copied here) pulls
  the line from its owner — the map returns per-owner byte totals that the
  caller prices through :meth:`repro.net.fabric.Network.pull` — and
  records the copy so re-reads are free until the next remote write.

Lines never written by any DThread (owner ``-1``) are program inputs
materialised by the prologue; TFluxDist replicates those to every node at
load time, so reading them is free.  With one node nothing is ever
remote, which keeps the 1-node differential exact.

State is vectorised NumPy per region (an ``int8`` owner and a ``uint64``
copy-set bitmask per line), following :mod:`repro.sim.fastcache`.  One
word is exactly the node-presence width of the two-level sharer
directory (:mod:`repro.sim.capability`), so the copy set covers every
representable machine — up to :data:`~repro.sim.capability.MAX_NODES`
nodes — without a second level.

The geometry lives in :mod:`repro.core.regions` (the shared region
algebra): a sweep's lines become a line-index vector through
:func:`~repro.core.regions.line_index` and the per-line state arrays
are :class:`~repro.core.regions.LineTable` rows — this module only
replays the ownership protocol over them.  A sweep of one line (a
DThread's partial-sum slot) replays it on Python scalars: the same
protocol on one element, without an index vector or a ``uint64`` mask.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from repro.core.regions import LineTable, line_index
from repro.sim.accesses import AccessSummary, Region
from repro.sim.capability import check_nodes

__all__ = ["RegionOwnerMap"]


class RegionOwnerMap:
    """Per-line writer tracking across the nodes of one TFluxDist run."""

    def __init__(self, regions: Iterable[Region], line_size: int, nnodes: int) -> None:
        check_nodes(nnodes, what="RegionOwnerMap")
        self.line_size = line_size
        self.nnodes = nnodes
        self._owner = LineTable(line_size, np.int8, -1)
        self._copies = LineTable(line_size, np.uint64, 0)
        for region in regions:
            self._owner.add(region)
            self._copies.add(region)

    def access(self, node: int, summary: AccessSummary) -> Dict[int, int]:
        """Apply *summary* as executed on *node*; return pull sizes.

        The result maps owner node → bytes that must be forwarded to
        *node* before the DThread can run.  Ops are replayed in summary
        order, so a thread that writes then re-reads its own output pulls
        nothing.
        """
        if not 0 <= node < self.nnodes:
            raise ValueError(f"node {node} outside 0..{self.nnodes - 1}")
        pulls: Dict[int, int] = {}
        line_size = self.line_size
        for op in summary.ops:
            # Rows materialise lazily for regions declared after map
            # construction (a new array a DThread body adds mid-run).
            owner = self._owner.row(op.region)
            copies = self._copies.row(op.region)
            lines = op.line_indices(line_size)
            if type(lines) is range and len(lines) == 1:
                line = lines.start
                if op.is_write:
                    owner[line] = node
                    copies[line] = 1 << node
                else:
                    src, mask = owner.item(line), copies.item(line)
                    if src >= 0 and src != node and not mask >> node & 1:
                        pulls[src] = pulls.get(src, 0) + line_size
                        copies[line] = mask | 1 << node
                continue
            idx = line_index(lines)
            mybit = np.uint64(1 << node)
            if op.is_write:
                owner[idx] = node
                copies[idx] = mybit
            else:
                own = owner[idx]
                remote = (own >= 0) & (own != node) & ((copies[idx] & mybit) == 0)
                if remote.any():
                    srcs, counts = np.unique(own[remote], return_counts=True)
                    for src, count in zip(srcs.tolist(), counts.tolist()):
                        pulls[src] = pulls.get(src, 0) + count * line_size
                    copies[idx] |= np.where(remote, mybit, np.uint64(0))
        return pulls
