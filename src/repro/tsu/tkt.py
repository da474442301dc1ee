"""Thread-to-Kernel Table (TKT) — Thread Indexing.

"A special table which is automatically embedded into the application's
code by the DDM Preprocessor, the Thread to Kernel Table (TKT) associates
each DThread with the SM containing its Ready Count value.  As such, when
the TSU Emulator is to update a DThread's Ready Count, it can directly
access the SM containing this DThread" (paper §4.2) — eliminating the
linear search over SMs as the node count grows.

:func:`contiguous_partition` completes the lookup where SMs are grouped
(TFluxDist's nodes, the §4.1 TSU Groups): ``part[tkt.kernel_of(i)]`` is
the node shard (Group device) holding this DThread — what decides whether
a Ready-Count update is a local decrement or a message (a transfer).
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["ThreadToKernelTable", "contiguous_partition"]


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

    def __len__(self) -> int:
        return len(self._table)

    def threads_of(self, kernel: int) -> list[int]:
        return [i for i, k in enumerate(self._table) if k == kernel]


def contiguous_partition(nkernels: int, parts: int) -> list[int]:
    """Kernel → part, the one rule for nodes and TSU Groups: kernels of
    a part are neighbours (TFluxDist composes N TFluxSoft-style nodes
    whose kernel ids are globally numbered), every part owns at least
    one kernel and sizes differ by at most one."""
    if not 1 <= parts <= nkernels:
        raise ValueError(
            f"need 1 <= parts <= nkernels, got parts={parts} nkernels={nkernels}"
        )
    return [kernel * parts // nkernels for kernel in range(nkernels)]
