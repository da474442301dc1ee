"""Thread-to-Kernel Table (TKT) — Thread Indexing.

"A special table which is automatically embedded into the application's
code by the DDM Preprocessor, the Thread to Kernel Table (TKT) associates
each DThread with the SM containing its Ready Count value.  As such, when
the TSU Emulator is to update a DThread's Ready Count, it can directly
access the SM containing this DThread" (paper §4.2) — eliminating the
linear search over SMs as the node count grows.

:class:`NodeThreadToKernelTable` extends the lookup for TFluxDist: each
kernel belongs to exactly one *node*, so the same table also answers
"which node's TSU shard holds this DThread" — the datum the distributed
post-processing needs to decide whether a Ready-Count update is a local
SM decrement or a network message.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["ThreadToKernelTable", "NodeThreadToKernelTable"]


class ThreadToKernelTable:
    """Dense map: block-local instance id → kernel (SM) index."""

    def __init__(self, assignment: Sequence[int], nkernels: int) -> None:
        bad = [k for k in assignment if not 0 <= k < nkernels]
        if bad:
            raise ValueError(f"kernel indices out of range: {bad[:5]}")
        self._table = list(assignment)
        self.nkernels = nkernels

    def kernel_of(self, local_iid: int) -> int:
        """Direct index — O(1), the point of Thread Indexing."""
        return self._table[local_iid]

    @property
    def assignment(self) -> tuple[int, ...]:
        """The full instance → kernel map (immutable view)."""
        return tuple(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def threads_of(self, kernel: int) -> list[int]:
        return [i for i, k in enumerate(self._table) if k == kernel]


class NodeThreadToKernelTable(ThreadToKernelTable):
    """TKT that also resolves the *node* owning each kernel's SM.

    Kernels partition contiguously across nodes with the same integer
    formula :mod:`repro.tsu.multigroup` uses for TSU Groups
    (``kernel * nnodes // nkernels``), so kernels of one node are
    neighbours — matching how TFluxDist composes N TFluxSoft-style nodes
    whose kernel ids are globally numbered.
    """

    def __init__(self, assignment: Sequence[int], nkernels: int, nnodes: int) -> None:
        super().__init__(assignment, nkernels)
        if not 1 <= nnodes <= nkernels:
            raise ValueError(
                f"need 1 <= nnodes <= nkernels, got nnodes={nnodes} nkernels={nkernels}"
            )
        self.nnodes = nnodes
        self._node_of_kernel = [k * nnodes // nkernels for k in range(nkernels)]

    @classmethod
    def from_table(cls, tkt: ThreadToKernelTable, nnodes: int) -> "NodeThreadToKernelTable":
        """Extend a freshly built per-block TKT with the node dimension."""
        return cls(tkt.assignment, tkt.nkernels, nnodes)

    def node_of(self, local_iid: int) -> int:
        """Node whose TSU shard holds this DThread's Ready Count."""
        return self._node_of_kernel[self._table[local_iid]]

    def placement_of(self, local_iid: int) -> tuple[int, int]:
        """The full instance → (node, kernel) mapping of the tentpole."""
        kernel = self._table[local_iid]
        return self._node_of_kernel[kernel], kernel

    def kernels_of_node(self, node: int) -> list[int]:
        return [k for k in range(self.nkernels) if self._node_of_kernel[k] == node]
