"""SUSAN — image recognition / smoothing (MiBench, Table 1).

"SUSAN has three distinct phases which have been parallelized
independently, the initialization phase, the processing phase and the one
during which the results are written to a large output array" (§6.1.2).

We reproduce exactly that structure over a synthetic grayscale image:

* ``init[r]`` — generate the image rows (a deterministic pattern standing
  in for the MiBench input frame, which we do not ship);
* ``smooth[r]`` — brightness-weighted 3x3 smoothing (the USAN-style
  kernel: neighbours similar in brightness to the centre get full weight,
  dissimilar ones are attenuated — SUSAN's core idea);
* ``output[r]`` — quantise the smoothed rows into the 8-bit output array.

Phases are separated by "all" arcs (the paper's independently-parallelised
phases imply barriers); rows are chunked by the unroll factor.
"""

from __future__ import annotations

import numpy as np

from repro.apps import common
from repro.apps.common import COSTS, ProblemSize, chunk_bounds
from repro.core.builder import ProgramBuilder
from repro.core.program import DDMProgram
from repro.sim.accesses import AccessSummary

__all__ = ["Susan", "synthetic_image", "smooth_oracle"]

#: Brightness-similarity threshold of the USAN weighting.
BRIGHTNESS_T = 20.0


@common.memo_readonly
def synthetic_image(w: int, h: int) -> np.ndarray:
    """Deterministic test frame: smooth gradients plus sharp structures."""
    y, x = np.mgrid[0:h, 0:w]
    img = (
        96.0
        + 64.0 * np.sin(2 * np.pi * x / 64.0)
        + 48.0 * np.cos(2 * np.pi * y / 48.0)
    )
    img += np.where((x // 32 + y // 32) % 2 == 0, 40.0, -40.0)  # checkers (edges)
    return np.clip(img, 0.0, 255.0)


#: Rows of one smoothing block: a block holds its window and four arrays
#: of pair weights, so this bounds a call's temporaries at any row count.
BLOCK_ROWS = 32


def _smooth_rows(img: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """USAN-weighted 3x3 mean of rows [lo, hi) with edge clamping.

    Pixel p's value is ``sum(w * n) / sum(w)`` over its nine neighbours n
    (itself included; coordinates clamped at the image edges), summed in
    row-major (dy, dx) order from zero, with the pair weight
    ``w = exp(-((n - p) / BRIGHTNESS_T) ** 2)``.  Each pixel depends only
    on its own window, so rows are smoothed in blocks of ``BLOCK_ROWS``
    and any split of the rows gives the same bits.  *img* is read by
    basic row slices only.
    """
    out = np.empty((hi - lo, img.shape[1]))
    for b in range(lo, hi, BLOCK_ROWS):
        _smooth_block(img, b, min(b + BLOCK_ROWS, hi), out[b - lo:])
    return out


def _pair_weights(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``exp(-((b - a) / BRIGHTNESS_T) ** 2)`` in one buffer.

    Symmetric bit for bit: ``a - b == -(b - a)`` exactly, and the square
    drops the sign, so one array serves both pixels of every pair.
    """
    wgt = np.subtract(b, a)
    wgt /= BRIGHTNESS_T
    np.square(wgt, out=wgt)
    np.negative(wgt, out=wgt)
    return np.exp(wgt, out=wgt)


def _smooth_block(img: np.ndarray, lo: int, hi: int, out: np.ndarray) -> None:
    """Smooth rows [lo, hi) of *img* into the first ``hi - lo`` rows of
    *out*, bit for bit as the direct nine-neighbour sum (see
    :func:`_smooth_rows`)."""
    h, w = img.shape
    r = hi - lo
    # The (r+2, w+2) window around the rows, edges clamped by copying.
    win = np.empty((r + 2, w + 2))
    top, bot = max(lo - 1, 0), min(hi + 1, h)
    first = top - lo + 1
    win[first:first + bot - top, 1:-1] = img[top:bot]
    if lo == 0:
        win[0, 1:-1] = win[1, 1:-1]
    if hi == h:
        win[-1, 1:-1] = win[-2, 1:-1]
    win[:, 0] = win[:, 1]
    win[:, -1] = win[:, -2]
    # One weight array per forward direction d over the pairs (a, a + d)
    # some centre c uses: neighbour d of c is the pair at a = c, neighbour
    # -d the pair at a = c - d.  Each comment gives the window rows and
    # columns of a.
    e = _pair_weights(win[1:-1, :-1], win[1:-1, 1:])  # d=(0, 1): 1..r, 0..w
    s = _pair_weights(win[:-1, 1:-1], win[1:, 1:-1])  # d=(1, 0): 0..r, 1..w
    se = _pair_weights(win[:-1, :-1], win[1:, 1:])  # d=(1, 1): 0..r, 0..w
    sw = _pair_weights(win[:-1, 1:], win[1:, :-1])  # d=(1, -1): 0..r, 1..w+1
    weights = (
        se[:-1, :-1], s[:-1], sw[:-1, 1:],
        e[:, :-1], None, e[:, 1:],
        sw[1:, :-1], s[1:], se[1:, 1:],
    )  # row-major (dy, dx); the centre's is exp(-0.0) == 1.0
    num = out[:r]
    num[...] = 0.0
    den = np.zeros((r, w))
    term = np.empty((r, w))
    for k, wgt in enumerate(weights):
        dy, dx = divmod(k, 3)
        nb = win[dy:r + dy, dx:w + dx]
        if wgt is None:
            num += nb
            den += 1.0
        else:
            np.multiply(wgt, nb, out=term)
            num += term
            den += wgt
    np.divide(num, den, out=num)


def smooth_oracle(img: np.ndarray) -> np.ndarray:
    """Whole-image smoothing (test oracle)."""
    return _smooth_rows(img, 0, img.shape[0])


def _quantise(rows: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(rows), 0, 255).astype(np.uint8)


@common.memo_readonly
def _expected(w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """The oracle: the smoothed test frame and its 8-bit quantisation."""
    smoothed = smooth_oracle(synthetic_image(w, h))
    return smoothed, _quantise(smoothed)


class Susan:
    name = "susan"

    def decomposition(self, size: ProblemSize, unroll: int, max_threads: int) -> int:
        """Row-chunk DThreads per phase: *unroll* rows each, at most
        *max_threads*."""
        h = size.params["h"]
        return min(common.nthreads_for(h, unroll), max_threads, h)

    def build(
        self,
        size: ProblemSize,
        unroll: int = 1,
        max_threads: int = 4096,
        deps: str = "declared",
    ) -> DDMProgram:
        w, h = size.params["w"], size.params["h"]
        nthreads = self.decomposition(size, unroll, max_threads)

        b = ProgramBuilder(f"susan[{size.label}]")
        b.env.alloc("img", (h, w))
        b.env.alloc("sm", (h, w))
        b.env.alloc("out", (h, w), dtype=np.uint8)
        reg_img, reg_sm, reg_out = (b.env.region(x) for x in ("img", "sm", "out"))
        b.env.set("w", w)
        b.env.set("h", h)

        def rows(i):
            return chunk_bounds(h, nthreads, i)

        # -- phase 1: init -------------------------------------------------------
        full = synthetic_image(w, h)  # read-only memo; rows copied per thread

        def init_body(env, i):
            lo, hi = rows(i)
            env.array("img")[lo:hi] = full[lo:hi]

        def init_cost(env, i):
            lo, hi = rows(i)
            return (hi - lo) * w * COSTS.susan_init_pix

        def init_accesses(env, i):
            lo, hi = rows(i)
            return AccessSummary().write(
                reg_img, offset=lo * w * 8, count=(hi - lo) * w, resident=False
            )

        t_init = b.thread(
            "init", body=init_body, contexts=nthreads, cost=init_cost,
            accesses=init_accesses,
        )

        # -- phase 2: smoothing -----------------------------------------------------
        def smooth_body(env, i):
            lo, hi = rows(i)
            env.array("sm")[lo:hi] = _smooth_rows(env.array("img"), lo, hi)

        def smooth_cost(env, i):
            lo, hi = rows(i)
            return (hi - lo) * w * COSTS.susan_proc_pix

        def smooth_accesses(env, i):
            lo, hi = rows(i)
            rlo, rhi = max(lo - 1, 0), min(hi + 1, h)
            s = AccessSummary()
            # Row-sequential with a one-row halo: streamable on scratchpads.
            s.read(reg_img, offset=rlo * w * 8, count=(rhi - rlo) * w, resident=False)
            s.write(reg_sm, offset=lo * w * 8, count=(hi - lo) * w, resident=False)
            return s

        t_smooth = b.thread(
            "smooth", body=smooth_body, contexts=nthreads, cost=smooth_cost,
            accesses=smooth_accesses,
        )

        # -- phase 3: write-out --------------------------------------------------------
        def out_body(env, i):
            lo, hi = rows(i)
            env.array("out")[lo:hi] = _quantise(env.array("sm")[lo:hi])

        def out_cost(env, i):
            lo, hi = rows(i)
            return (hi - lo) * w * COSTS.susan_out_pix

        def out_accesses(env, i):
            lo, hi = rows(i)
            s = AccessSummary()
            s.read(reg_sm, offset=lo * w * 8, count=(hi - lo) * w, resident=False)
            s.write(
                reg_out, offset=lo * w, count=(hi - lo) * w, elem_size=1,
                stride=1, resident=False,
            )
            return s

        t_out = b.thread(
            "output", body=out_body, contexts=nthreads, cost=out_cost,
            accesses=out_accesses,
        )
        def declare():
            # The paper's barriers; the deriver instead finds the exact
            # halo-shaped init->smooth map and a "same" smooth->output arc
            # (check_deps flags the "all" arcs below as over-wide).
            b.depends(t_init, t_smooth, "all")
            b.depends(t_smooth, t_out, "all")

        common.finish_graph(b, deps, declare)
        return b.build()

    def verify(self, env, size: ProblemSize) -> None:
        w, h = size.params["w"], size.params["h"]
        common.assert_allclose(env.array("img"), synthetic_image(w, h), atol=1e-12)
        smoothed, quantised = _expected(w, h)
        common.assert_allclose(env.array("sm"), smoothed, rtol=1e-9, atol=1e-9)
        np.testing.assert_array_equal(env.array("out"), quantised)


common.register(Susan())
