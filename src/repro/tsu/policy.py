"""TSU policies: DThread placement (TKT construction) and selection.

Placement decides which kernel's Synchronization Memory holds each DThread
instance — the Thread-to-Kernel Table.  The default, *contiguous*
placement, gives each kernel a consecutive range of contexts per template,
so neighbouring loop iterations (which touch neighbouring data) land on
the same core: the TSU's "maximise spatial locality" policy (paper §3.1).
Round-robin placement is provided as the locality-free baseline used by
the ablation benchmarks.

Templates may override placement per context through their ``affinity``
callable (used e.g. by QSORT's merge tree to co-locate a merge step with
one of its producers).
"""

from __future__ import annotations

from typing import Callable

from repro.core.block import DDMBlock

__all__ = ["contiguous_placement", "round_robin_placement", "PlacementPolicy"]

#: (block, nkernels) -> kernel index per block-local instance.
PlacementPolicy = Callable[[DDMBlock, int], list[int]]


def _place(block: DDMBlock, nkernels: int, rule: Callable[[int, int], int]) -> list[int]:
    """Place every instance by its template's ``affinity`` if it has one,
    else by *rule* ``(pos, n)``: the kernel of the *pos*-th of the *n*
    contexts its template has in the block."""
    instances = block.instances
    groups: dict[int, list[int]] = {}  # template -> its local ids, in context order
    for local_iid, inst in enumerate(instances):
        groups.setdefault(inst.template.tid, []).append(local_iid)
    assignment = [0] * block.size
    for locals_ in groups.values():
        # The block's topological order may permute a template's contexts
        # (an instance fed by no arc is an entry and comes first); a
        # template's ids are in context order, so sort by them.
        locals_.sort(key=lambda local_iid: instances[local_iid].iid)
        n = len(locals_)
        for pos, local_iid in enumerate(locals_):
            inst = block.instances[local_iid]
            if inst.template.affinity is not None:
                assignment[local_iid] = inst.template.affinity(inst.ctx, nkernels) % nkernels
            else:
                assignment[local_iid] = rule(pos, n)
    return assignment


def contiguous_placement(block: DDMBlock, nkernels: int) -> list[int]:
    """Each kernel gets a contiguous chunk of every template's contexts."""
    return _place(block, nkernels, lambda pos, n: pos * nkernels // n)


def round_robin_placement(block: DDMBlock, nkernels: int) -> list[int]:
    """Instances dealt to kernels cyclically (no locality preservation)."""
    return _place(block, nkernels, lambda pos, n: pos % nkernels)
