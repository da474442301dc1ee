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


def f(x: np.ndarray) -> np.ndarray:
    """The integrand; integral over [0,1] is pi."""
    return 4.0 / (1.0 + x * x)


class Trapez:
    name = "trapez"

    def build(
        self,
        size: ProblemSize,
        unroll: int = 1,
        max_threads: int = 4096,
        deps: str = "declared",
    ) -> DDMProgram:
        k = size.params["k"]
        n = 1 << k
        base_chunks = max(1, n // BASE_INTERVALS)
        nthreads = min(common.nthreads_for(base_chunks, unroll), max_threads, n)
        h = (B - A) / n

        b = ProgramBuilder(f"trapez[{size.label}]")
        parts = b.env.alloc("parts", nthreads)
        parts_region = b.env.region("parts")
        b.env.set("n_intervals", n)

        def chunk_body(env, i):
            lo, hi = chunk_bounds(n, nthreads, i)
            x = A + h * np.arange(lo, hi + 1)
            y = f(x)
            env.array("parts")[i] = h * (y.sum() - 0.5 * (y[0] + y[-1]))

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
