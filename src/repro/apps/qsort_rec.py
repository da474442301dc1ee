"""QSORT-REC — recursive quicksort over dynamically spawned subflows.

The static QSORT decomposition (:mod:`repro.apps.qsort`) fixes its
chunk/merge tree before execution.  This variant is the same MiBench
workload expressed the way quicksort actually recurses: one ``sort``
DThread partitions its range in place and *spawns* a
:class:`~repro.core.dynamic.Subflow` with two child sorters for the
sub-ranges — the graph unrolls at run time, driven by the pivot values,
until ranges fall under the leaf cutoff and are sorted directly.

Because partitioning is in place and children work on disjoint ranges,
no merge phase exists: the spawning Outlet→Inlet barrier is the only
synchronisation, and the result is sorted when the last leaf retires.

The *unroll* factor keeps its Table-1 meaning (coarser DThreads): it
scales the leaf cutoff, so higher unroll means fewer, larger leaves and
a shallower dynamic tree.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps import common
from repro.apps.common import COSTS, ProblemSize
from repro.apps.qsort import permutation
from repro.core.builder import ProgramBuilder
from repro.core.dynamic import Subflow
from repro.core.program import DDMProgram
from repro.sim.accesses import AccessSummary

__all__ = ["QSortRec"]

#: Leaves at unroll 1 (the cutoff is sized so a balanced recursion
#: produces about this many); the unroll factor divides it.
BASE_LEAVES = 64


def _leaf_cost(m: int) -> int:
    m = max(m, 2)
    return int(m * math.log2(m) * COSTS.sort_cmp)


def _partition_cost(m: int, cutoff: int) -> int:
    # One partition pass for an internal node, n log n for a leaf; the
    # cost model cannot see the pivot, so it prices the pessimistic
    # (leaf) case — cycle-dominant either way.
    return _leaf_cost(min(m, cutoff)) if m <= cutoff else m * COSTS.sort_cmp


def _range_accesses(reg_data, lo: int, hi: int) -> AccessSummary:
    m = max(hi - lo, 1)
    reps = max(1, int(math.log2(max(m, 2))))
    s = AccessSummary()
    s.read(reg_data, offset=lo * 8, count=m, reps=reps)
    s.write(reg_data, offset=lo * 8, count=m, reps=reps)
    return s


def _declare_sort(b, name: str, lo: int, hi: int, cutoff: int, reg_data) -> None:
    """Declare the sort DThread for [lo, hi) on *b* (program or subflow).

    Module-level, like :func:`_sorter`: a maker nested in ``build`` that
    names itself is a closure cycle, which keeps every run's graph alive
    until the cycle collector runs.
    """
    b.thread(
        name,
        body=_sorter(lo, hi, cutoff, reg_data),
        cost=lambda env, _c: _partition_cost(hi - lo, cutoff),
        accesses=lambda env, _c: _range_accesses(reg_data, lo, hi),
    )


def _sorter(lo: int, hi: int, cutoff: int, reg_data):
    """Body of the sort DThread for [lo, hi): partition or leaf."""

    def body(env, ctx):
        d = env.array("data")
        m = hi - lo
        if m <= cutoff:
            d[lo:hi] = np.sort(d[lo:hi], kind="quicksort")
            return None
        seg = d[lo:hi]
        # Deterministic median-of-three pivot: recursion shape depends
        # only on the data, never on the schedule.
        pivot = float(np.median([seg[0], seg[m // 2], seg[m - 1]]))
        left = seg[seg < pivot]
        mid = seg[seg == pivot]
        right = seg[seg > pivot]
        d[lo:hi] = np.concatenate([left, mid, right])
        p0 = lo + len(left)
        p1 = p0 + len(mid)
        sf = Subflow(f"split[{lo}:{hi}]")
        if p0 > lo:
            _declare_sort(sf, f"sort[{lo}:{p0}]", lo, p0, cutoff, reg_data)
        if hi > p1:
            _declare_sort(sf, f"sort[{p1}:{hi}]", p1, hi, cutoff, reg_data)
        return sf if sf.ninstances else None

    return body


class QSortRec:
    name = "qsort_rec"

    def decomposition(self, size: ProblemSize, unroll: int, max_threads: int) -> int:
        """Leaves the cutoff is sized for: ``BASE_LEAVES`` over *unroll*,
        at most *max_threads*."""
        n = size.params["n"]
        return max(1, min(common.nthreads_for(BASE_LEAVES, unroll), max_threads, n))

    def build(
        self,
        size: ProblemSize,
        unroll: int = 1,
        max_threads: int = 4096,
        deps: str = "declared",
    ) -> DDMProgram:
        n = size.params["n"]
        nleaves = self.decomposition(size, unroll, max_threads)
        cutoff = max(32, -(-n // nleaves))

        b = ProgramBuilder(f"qsort_rec[{size.label}]")
        b.env.alloc("data", n)
        reg_data = b.env.region("data")
        b.env.set("n", n)

        def init_body(env):
            env.array("data")[...] = permutation(n)

        b.prologue(
            "init",
            body=init_body,
            cost=lambda env: 4 * n,
            accesses=lambda env: AccessSummary().write(reg_data),
        )

        _declare_sort(b, "sort[root]", 0, n, cutoff, reg_data)
        b.thread("done", body=lambda env, _c: env.set("sorted", True))
        # Control arc: "done" is opaque (no access summary), so the
        # deriver cannot see this ordering — it stays declared in both
        # deps modes and auto_depends adds nothing on top.
        b.depends(1, 2)
        common.finish_graph(b, deps, lambda: None)
        return b.build()

    def verify(self, env, size: ProblemSize) -> None:
        n = env.get("n")
        data = env.array("data")
        assert env.get("sorted") is True
        np.testing.assert_array_equal(data, np.arange(n, dtype=np.float64))


common.register(QSortRec())
