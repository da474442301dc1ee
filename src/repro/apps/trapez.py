"""TRAPEZ — trapezoidal-rule integration (custom kernel, Table 1).

Integrates f(x) = 4/(1+x^2) over [0,1] (the quadrature whose exact value
is pi) with 2^k intervals.  The DDM decomposition mirrors the paper's
description (§6.1.2): the interval loop is cut into per-DThread chunks
(the unroll factor makes each chunk coarser); each chunk DThread writes
its partial sum into ``parts``; a single reduction DThread, fed by an
"all" arc, adds the partials — "no DThread dependencies other than a
reduction operation that is required at the end", which is why TRAPEZ
approaches ideal speedup.
"""

from __future__ import annotations

import numpy as np

from repro.apps import common
from repro.apps.common import COSTS, ProblemSize, chunk_bounds
from repro.core.builder import ProgramBuilder
from repro.core.program import DDMProgram
from repro.sim.accesses import AccessSummary

__all__ = ["Trapez", "f"]

#: Base granularity: intervals per DThread at unroll factor 1.
BASE_INTERVALS = 64

A, B = 0.0, 1.0
# The chunk body computes the grid point ``A + h * i`` as ``h * i``: with
# ``A == 0.0`` and ``h * i >= +0.0`` adding A is exact, so it is skipped.
assert A == 0.0, "the TRAPEZ chunk body leaves A out of its grid points"


def f(x: np.ndarray) -> np.ndarray:
    """The integrand ``4 / (1 + x * x)``; integral over [0,1] is pi.

    Evaluated in place: overwrites *x* with the values and returns it.
    The same IEEE operations on the same operands as the formula.
    """
    np.square(x, out=x)
    x += 1.0
    return np.divide(4.0, x, out=x)


class Trapez:
    name = "trapez"

    def decomposition(self, size: ProblemSize, unroll: int, max_threads: int) -> int:
        """Chunk DThreads: one per ``BASE_INTERVALS`` intervals, *unroll*
        times coarser, at most *max_threads*."""
        n = 1 << size.params["k"]
        base_chunks = max(1, n // BASE_INTERVALS)
        return min(common.nthreads_for(base_chunks, unroll), max_threads, n)

    def build(
        self,
        size: ProblemSize,
        unroll: int = 1,
        max_threads: int = 4096,
        deps: str = "declared",
    ) -> DDMProgram:
        n = 1 << size.params["k"]
        nthreads = self.decomposition(size, unroll, max_threads)
        h = (B - A) / n

        b = ProgramBuilder(f"trapez[{size.label}]")
        parts = b.env.alloc("parts", nthreads)
        parts_region = b.env.region("parts")
        b.env.set("n_intervals", n)

        def chunk_body(env, i):
            lo, hi = chunk_bounds(n, nthreads, i)
            x = np.arange(lo, hi + 1, dtype=np.float64)
            x *= h  # the grid points A + h * i, A == 0.0 (see above)
            y = f(x)
            env.array("parts")[i] = h * (
                np.add.reduce(y) - 0.5 * (y[0].item() + y[-1].item())
            )

        def chunk_cost(env, i):
            lo, hi = chunk_bounds(n, nthreads, i)
            return (hi - lo) * COSTS.trapez_interval

        def chunk_accesses(env, i):
            # The integrand is computed in registers; only the partial-sum
            # slot touches memory.
            return AccessSummary().write(parts_region, offset=i * 8, count=1)

        t_chunk = b.thread(
            "chunk",
            body=chunk_body,
            contexts=nthreads,
            cost=chunk_cost,
            accesses=chunk_accesses,
        )

        def reduce_body(env, _):
            env.set("integral", float(env.array("parts").sum()))

        def reduce_cost(env, _):
            return nthreads * 4  # one load+add per partial

        def reduce_accesses(env, _):
            return AccessSummary().read(parts_region, count=nthreads)

        t_reduce = b.thread(
            "reduce", body=reduce_body, cost=reduce_cost, accesses=reduce_accesses
        )
        common.finish_graph(b, deps, lambda: b.depends(t_chunk, t_reduce, "all"))
        return b.build()

    def verify(self, env, size: ProblemSize) -> None:
        n = env.get("n_intervals")
        got = env.get("integral")
        assert got is not None, "integral was never produced"
        # The trapezoid error for this integrand is O(h^2).
        assert abs(got - np.pi) < 10.0 / (n * n) + 1e-9, (
            f"integral {got} too far from pi"
        )


common.register(Trapez())
