"""MMULT — dense matrix multiply (custom kernel, Table 1).

C = A @ B over NxN doubles.  The row loop is the parallel loop: a DThread
computes ``unroll`` consecutive rows of C.  MMULT is embarrassingly
parallel "but suffers from a large number of coherency misses, limiting
it from achieving the idealized speedup" (§6.1.2): the prologue
initialises A and B on one core, so every other kernel's first sweep over
B pays coherence transfers, and B's footprint (512 KB at N=256) streams
through the L2 on every row pass.
"""

from __future__ import annotations

import numpy as np

from repro.apps import common
from repro.apps.common import COSTS, ProblemSize, chunk_bounds
from repro.core.builder import ProgramBuilder
from repro.core.program import DDMProgram
from repro.sim.accesses import AccessSummary

__all__ = ["MMult"]


@common.memo_readonly
def _make_inputs(n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed=n)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


@common.memo_readonly
def _product(n: int) -> np.ndarray:
    """The oracle: ``A @ B`` of the generated inputs."""
    a, bm = _make_inputs(n)
    return a @ bm


class MMult:
    name = "mmult"

    def decomposition(self, size: ProblemSize, unroll: int, max_threads: int) -> int:
        """Row-block DThreads: *unroll* rows of C each, at most *max_threads*."""
        n = size.params["n"]
        return min(common.nthreads_for(n, unroll), max_threads, n)

    def build(
        self,
        size: ProblemSize,
        unroll: int = 1,
        max_threads: int = 4096,
        deps: str = "declared",
    ) -> DDMProgram:
        n = size.params["n"]
        nthreads = self.decomposition(size, unroll, max_threads)

        b = ProgramBuilder(f"mmult[{size.label}]")
        b.env.alloc("A", (n, n))
        b.env.alloc("B", (n, n))
        b.env.alloc("C", (n, n))
        regA, regB, regC = (b.env.region(x) for x in "ABC")
        b.env.set("n", n)

        def init_body(env):
            a, bm = _make_inputs(n)
            env.array("A")[...] = a
            env.array("B")[...] = bm

        def init_cost(env):
            return 2 * n * n  # generator + store per element

        def init_accesses(env):
            return AccessSummary().write(regA).write(regB)

        b.prologue("init", body=init_body, cost=init_cost, accesses=init_accesses)

        def rows_body(env, i):
            lo, hi = chunk_bounds(n, nthreads, i)
            env.array("C")[lo:hi] = env.array("A")[lo:hi] @ env.array("B")

        def rows_cost(env, i):
            lo, hi = chunk_bounds(n, nthreads, i)
            return (hi - lo) * n * n * COSTS.mmult_mac

        def rows_accesses(env, i):
            lo, hi = chunk_bounds(n, nthreads, i)
            rows = hi - lo
            s = AccessSummary()
            # All three matrices are consumed/produced row-sequentially, so
            # a scratchpad (SPE Local Store) only ever needs a tile of each
            # — the SPE kernel processes one row of A/C at a time and
            # streams B through (paper §6.3 requires unroll 64 on Cell to
            # amortise exactly these DMA transfers).
            s.read(regA, offset=lo * n * 8, count=rows * n, resident=False)
            s.read(regB, resident=False)
            s.write(regC, offset=lo * n * 8, count=rows * n, resident=False)
            return s

        b.thread(
            "rows",
            body=rows_body,
            contexts=nthreads,
            cost=rows_cost,
            accesses=rows_accesses,
        )
        # Row chunks are independent (the deriver confirms: no arcs in
        # either mode — C chunks are disjoint, A/B only ever read).
        common.finish_graph(b, deps, lambda: None)
        return b.build()

    def verify(self, env, size: ProblemSize) -> None:
        expected = _product(env.get("n"))
        common.assert_allclose(env.array("C"), expected, rtol=1e-9, atol=1e-9)


common.register(MMult())
