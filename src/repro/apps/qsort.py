"""QSORT — array sorting (MiBench, Table 1).

"In QSORT each DThread sorts one part of the array.  At the end, these
sorted sub-arrays are merged to produce the final one.  This last phase
is the bottleneck for this application as its execution time is
comparable to that of the sorting operation.  The current application is
written with a two-level tree to do the merging" (§6.1.2).

Decomposition:

* ``sort[i]`` — quicksort of part *i* in place (parts get coarser with the
  unroll factor);
* ``merge1[g]`` — four level-1 DThreads, each k-way-merging its quarter of
  the sorted parts into ``tmp``;
* ``merge2`` — the final (serial-bottleneck) merge of the four runs back
  into ``data``.

The prologue initialises the array on one core — the cache hand-off the
paper uses to explain the non-monotonic native results (§6.2.2).
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps import common
from repro.apps.common import COSTS, ProblemSize, chunk_bounds
from repro.core.builder import ProgramBuilder
from repro.core.program import DDMProgram
from repro.sim.accesses import AccessSummary

__all__ = ["QSort", "permutation"]

#: Parts at unroll 1; the unroll factor divides this (two-level tree needs
#: at least one part per level-1 merge group).
BASE_PARTS = 256
MERGE_GROUPS = 4


@common.memo_readonly
def permutation(n: int) -> np.ndarray:
    """The unsorted input: a seeded permutation of ``0..n-1`` as doubles."""
    return np.random.default_rng(seed=n).permutation(n).astype(np.float64)


def _merge_runs(runs: list[np.ndarray]) -> np.ndarray:
    """Iterative pairwise merge of sorted runs (real k-way merge work)."""
    work = list(runs)
    while len(work) > 1:
        merged = []
        for j in range(0, len(work) - 1, 2):
            a, b = work[j], work[j + 1]
            out = np.empty(len(a) + len(b), dtype=a.dtype)
            # NumPy-vectorised two-way merge via searchsorted placement.
            pos = np.searchsorted(a, b, side="right")
            out[pos + np.arange(len(b))] = b
            mask = np.ones(len(out), dtype=bool)
            mask[pos + np.arange(len(b))] = False
            out[mask] = a
            merged.append(out)
        if len(work) % 2:
            merged.append(work[-1])
        work = merged
    return work[0]


class QSort:
    name = "qsort"

    def build(
        self,
        size: ProblemSize,
        unroll: int = 1,
        max_threads: int = 4096,
        deps: str = "declared",
    ) -> DDMProgram:
        n = size.params["n"]
        nparts = max(MERGE_GROUPS, min(common.nthreads_for(BASE_PARTS, unroll), max_threads, n))
        # Keep parts a multiple of the merge groups for a regular tree.
        nparts -= nparts % MERGE_GROUPS

        b = ProgramBuilder(f"qsort[{size.label}]")
        b.env.alloc("data", n)
        b.env.alloc("tmp", n)
        reg_data = b.env.region("data")
        reg_tmp = b.env.region("tmp")
        b.env.set("n", n)

        def init_body(env):
            env.array("data")[...] = permutation(n)

        b.prologue(
            "init",
            body=init_body,
            cost=lambda env: 4 * n,
            accesses=lambda env: AccessSummary().write(reg_data),
        )

        # -- phase 1: sort each part in place --------------------------------
        def part_bounds(i):
            return chunk_bounds(n, nparts, i)

        def sort_body(env, i):
            lo, hi = part_bounds(i)
            d = env.array("data")
            d[lo:hi] = np.sort(d[lo:hi], kind="quicksort")

        def sort_cost(env, i):
            lo, hi = part_bounds(i)
            m = max(hi - lo, 2)
            return int(m * math.log2(m) * COSTS.sort_cmp)

        def sort_accesses(env, i):
            lo, hi = part_bounds(i)
            m = hi - lo
            reps = max(1, int(math.log2(max(m, 2))))
            s = AccessSummary()
            s.read(reg_data, offset=lo * 8, count=m, reps=reps)
            s.write(reg_data, offset=lo * 8, count=m, reps=reps)
            return s

        t_sort = b.thread(
            "sort",
            body=sort_body,
            contexts=nparts,
            cost=sort_cost,
            accesses=sort_accesses,
        )

        # -- phase 2: four level-1 merges into tmp ------------------------------
        parts_per_group = nparts // MERGE_GROUPS

        def group_bounds(g):
            # A group's span is the union of its parts' spans (parts are
            # not all equal-sized, so this must follow part boundaries).
            glo = part_bounds(g * parts_per_group)[0]
            ghi = part_bounds((g + 1) * parts_per_group - 1)[1]
            return glo, ghi

        def merge1_body(env, g):
            d = env.array("data")
            runs = []
            for i in range(g * parts_per_group, (g + 1) * parts_per_group):
                lo, hi = part_bounds(i)
                runs.append(d[lo:hi].copy())
            glo, ghi = group_bounds(g)
            env.array("tmp")[glo:ghi] = _merge_runs(runs)

        def merge1_cost(env, g):
            glo, ghi = group_bounds(g)
            passes = max(1, int(math.ceil(math.log2(max(parts_per_group, 2)))))
            return (ghi - glo) * passes * COSTS.merge_elem

        def merge1_accesses(env, g):
            glo, ghi = group_bounds(g)
            m = ghi - glo
            s = AccessSummary()
            s.read(reg_data, offset=glo * 8, count=m)
            s.write(reg_tmp, offset=glo * 8, count=m)
            return s

        t_merge1 = b.thread(
            "merge1",
            body=merge1_body,
            contexts=MERGE_GROUPS,
            cost=merge1_cost,
            accesses=merge1_accesses,
        )

        # -- phase 3: final merge (the bottleneck) ---------------------------------
        def merge2_body(env, _):
            t = env.array("tmp")
            runs = []
            for g in range(MERGE_GROUPS):
                glo, ghi = group_bounds(g)
                runs.append(t[glo:ghi].copy())
            env.array("data")[...] = _merge_runs(runs)

        def merge2_cost(env, _):
            passes = int(math.ceil(math.log2(MERGE_GROUPS)))
            return n * passes * COSTS.merge_elem

        def merge2_accesses(env, _):
            return AccessSummary().read(reg_tmp).write(reg_data)

        t_merge2 = b.thread(
            "merge2", body=merge2_body, cost=merge2_cost, accesses=merge2_accesses
        )
        def declare():
            # sort part i feeds the level-1 merge of its group.
            b.depends(t_sort, t_merge1, mapping=lambda i: [i * MERGE_GROUPS // nparts])
            b.depends(t_merge1, t_merge2, "all")

        common.finish_graph(b, deps, declare)
        return b.build()

    def verify(self, env, size: ProblemSize) -> None:
        n = env.get("n")
        data = env.array("data")
        assert np.all(np.diff(data) >= 0), "output not sorted"
        # The input was a permutation of 0..n-1.
        np.testing.assert_array_equal(data, np.arange(n, dtype=np.float64))


common.register(QSort())
