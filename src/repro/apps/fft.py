"""FFT — 2-D FFT over an NxN complex matrix (NAS-derived, Table 1).

"FFT ... operates on the data in phases, which can only be parallelized
independently.  The limitation in the speedup comes from the fact that
there is an implicit synchronization overhead between the phases"
(§6.1.2).

Structure (a 2-D decimation of the NAS FT kernel):

* ``fft_rows[c]`` — 1-D FFTs along every row of the chunk;
* ``fft_cols[c]`` — 1-D FFTs along the columns (strided access!);
* ``checksum[c]`` + ``reduce`` — NAS-style checksum of the spectrum, the
  small serial tail that (together with the two barriers) keeps FFT's
  speedup below the embarrassingly-parallel kernels.

After both FFT phases, ``X == numpy.fft.fft2(X0)`` exactly, which the
verifier checks.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps import common
from repro.apps.common import COSTS, ProblemSize, chunk_bounds
from repro.core.builder import ProgramBuilder
from repro.core.program import DDMProgram
from repro.sim.accesses import AccessSummary

__all__ = ["FFT", "initial_matrix"]

COMPLEX_BYTES = 16


@common.memo_readonly
def initial_matrix(n: int) -> np.ndarray:
    """Deterministic pseudo-random complex input (NAS FT-style)."""
    rng = np.random.default_rng(seed=1234 + n)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))).astype(
        np.complex128
    )


@common.memo_readonly
def _spectrum(n: int) -> np.ndarray:
    """The oracle: ``numpy.fft.fft2`` of the generated input."""
    return np.fft.fft2(initial_matrix(n))


class FFT:
    name = "fft"

    def decomposition(self, size: ProblemSize, unroll: int, max_threads: int) -> int:
        """DThreads per phase: *unroll* rows (then columns) each, at most
        *max_threads*."""
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
        butterflies_per_line = (n // 2) * max(1, int(math.log2(n)))

        b = ProgramBuilder(f"fft[{size.label}]")
        b.env.alloc("X", (n, n), dtype=np.complex128)
        b.env.alloc("parts", nthreads, dtype=np.complex128)
        regX = b.env.region("X")
        reg_parts = b.env.region("parts")
        b.env.set("n", n)

        def init_body(env):
            env.array("X")[...] = initial_matrix(n)

        b.prologue(
            "init",
            body=init_body,
            cost=lambda env: 6 * n * n,
            accesses=lambda env: AccessSummary().write(regX, elem_size=COMPLEX_BYTES),
        )

        def bounds(i):
            return chunk_bounds(n, nthreads, i)

        # -- phase 1: row FFTs -------------------------------------------------
        def rows_body(env, i):
            lo, hi = bounds(i)
            x = env.array("X")
            x[lo:hi] = np.fft.fft(x[lo:hi], axis=1)

        def rows_cost(env, i):
            lo, hi = bounds(i)
            return (hi - lo) * butterflies_per_line * COSTS.fft_butterfly

        def rows_accesses(env, i):
            lo, hi = bounds(i)
            count = (hi - lo) * n
            reps = max(1, int(math.log2(n)))
            s = AccessSummary()
            s.read(regX, offset=lo * n * COMPLEX_BYTES, count=count,
                   elem_size=COMPLEX_BYTES, reps=reps)
            s.write(regX, offset=lo * n * COMPLEX_BYTES, count=count,
                    elem_size=COMPLEX_BYTES)
            return s

        t_rows = b.thread(
            "fft_rows", body=rows_body, contexts=nthreads,
            cost=rows_cost, accesses=rows_accesses,
        )

        # -- phase 2: column FFTs (strided) ------------------------------------------
        def cols_body(env, i):
            lo, hi = bounds(i)
            x = env.array("X")
            x[:, lo:hi] = np.fft.fft(x[:, lo:hi], axis=0)

        def cols_cost(env, i):
            lo, hi = bounds(i)
            return (hi - lo) * butterflies_per_line * COSTS.fft_butterfly

        def cols_accesses(env, i):
            lo, hi = bounds(i)
            width = hi - lo
            reps = max(1, int(math.log2(n)))
            s = AccessSummary()
            # One strided sweep: a (width*16)-byte slab out of every row.
            s.read(regX, offset=lo * COMPLEX_BYTES, count=n,
                   elem_size=width * COMPLEX_BYTES, stride=n * COMPLEX_BYTES,
                   reps=reps)
            s.write(regX, offset=lo * COMPLEX_BYTES, count=n,
                    elem_size=width * COMPLEX_BYTES, stride=n * COMPLEX_BYTES)
            return s

        t_cols = b.thread(
            "fft_cols", body=cols_body, contexts=nthreads,
            cost=cols_cost, accesses=cols_accesses,
        )

        # -- phase 3: NAS-style checksum -------------------------------------------
        def cksum_body(env, i):
            lo, hi = bounds(i)
            env.array("parts")[i] = env.array("X")[lo:hi].sum()

        def cksum_cost(env, i):
            lo, hi = bounds(i)
            return (hi - lo) * n * 4

        def cksum_accesses(env, i):
            lo, hi = bounds(i)
            s = AccessSummary()
            s.read(regX, offset=lo * n * COMPLEX_BYTES, count=(hi - lo) * n,
                   elem_size=COMPLEX_BYTES)
            s.write(reg_parts, offset=i * COMPLEX_BYTES, count=1,
                    elem_size=COMPLEX_BYTES)
            return s

        t_cksum = b.thread(
            "checksum", body=cksum_body, contexts=nthreads,
            cost=cksum_cost, accesses=cksum_accesses,
        )

        def reduce_body(env, _):
            env.set("checksum", complex(env.array("parts").sum()))

        t_reduce = b.thread(
            "reduce",
            body=reduce_body,
            cost=lambda env, _: nthreads * 6,
            accesses=lambda env, _: AccessSummary().read(
                reg_parts, count=nthreads, elem_size=COMPLEX_BYTES
            ),
        )
        def declare():
            b.depends(t_rows, t_cols, "all")
            b.depends(t_cols, t_cksum, "all")
            b.depends(t_cksum, t_reduce, "all")

        common.finish_graph(b, deps, declare)
        return b.build()

    def verify(self, env, size: ProblemSize) -> None:
        expected = _spectrum(env.get("n"))
        common.assert_allclose(env.array("X"), expected, rtol=1e-9, atol=1e-6)
        assert env.get("checksum") is not None
        common.assert_allclose(env.get("checksum"), expected.sum(), rtol=1e-9)


common.register(FFT())
