"""Shared workload infrastructure: size grid, cost constants, registry.

Problem sizes follow Table 1 of the paper, including the per-target
variants ("To avoid too short times for the native execution, for one of
the benchmarks, MMULT, we needed to use larger problem sizes" — and QSORT
uses smaller inputs on the Cell because of the 256 KB Local Store).

Cost constants translate element-level work into CPU cycles.  They are
single-issue-2008-core magnitudes; only their ratios to the runtime
overhead constants matter for the reproduced shapes, and the unrolling
ablation sweeps that ratio explicitly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Protocol

import numpy as np

from repro.core.program import DDMProgram

__all__ = [
    "CostConstants",
    "ProblemSize",
    "Benchmark",
    "BENCHMARKS",
    "register",
    "get_benchmark",
    "problem_sizes",
    "chunk_bounds",
    "nthreads_for",
    "MEMO_SIZE",
    "memo_readonly",
    "assert_allclose",
]

SIZE_LABELS = ("small", "medium", "large")
#: Targets as in Table 1: S = simulated (TFluxHard), N = native (TFluxSoft),
#: C = Cell (TFluxCell).
TARGETS = ("S", "N", "C")


@dataclass(frozen=True)
class CostConstants:
    """Cycles per element-level operation (see module docstring)."""

    trapez_interval: int = 12  # f(x) evaluation + accumulate (incl. fdiv)
    mmult_mac: int = 5  # one inner-loop multiply-accumulate step
    # (two loads + fmul + fadd + index bookkeeping on an in-order core)
    sort_cmp: int = 60  # one libc qsort() step: indirect cmp call on
    # string keys (MiBench qsort sorts strings), swap, partition bookkeeping
    merge_elem: int = 3  # one element through one k-way merge level (streaming)
    susan_init_pix: int = 8  # synthetic image generation per pixel
    susan_proc_pix: int = 60  # USAN window / smoothing per pixel
    susan_out_pix: int = 6  # result write-out per pixel
    fft_butterfly: int = 16  # one complex butterfly


COSTS = CostConstants()


@dataclass(frozen=True)
class ProblemSize:
    """One cell of Table 1: benchmark x target x size label."""

    bench: str
    target: str
    label: str
    params: dict

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.bench}/{self.target}/{self.label}({inner})"


class Benchmark(Protocol):
    """What every app module registers."""

    name: str

    def decomposition(
        self, size: ProblemSize, unroll: int, max_threads: int
    ) -> "int | float":
        """What ``build`` derives from *unroll* and *max_threads* — its
        DThread counts, or QUAD's tolerance — and reads from here alone:
        two pairs with equal decompositions build the same program."""
        ...

    def build(
        self,
        size: ProblemSize,
        unroll: int = 1,
        max_threads: int = 4096,
        deps: str = "declared",
    ) -> DDMProgram: ...

    def verify(self, env, size: ProblemSize) -> None: ...


BENCHMARKS: Dict[str, "Benchmark"] = {}

#: Table 1, encoded.  params are app-specific.
_SIZES: Dict[str, Dict[str, Dict[str, dict]]] = {
    "trapez": {
        t: {"small": {"k": 19}, "medium": {"k": 21}, "large": {"k": 23}}
        for t in TARGETS
    },
    "mmult": {
        "S": {"small": {"n": 64}, "medium": {"n": 128}, "large": {"n": 256}},
        "N": {"small": {"n": 256}, "medium": {"n": 512}, "large": {"n": 1024}},
        "C": {"small": {"n": 256}, "medium": {"n": 512}, "large": {"n": 1024}},
    },
    "qsort": {
        "S": {"small": {"n": 10_000}, "medium": {"n": 20_000}, "large": {"n": 50_000}},
        "N": {"small": {"n": 10_000}, "medium": {"n": 20_000}, "large": {"n": 50_000}},
        "C": {"small": {"n": 3_000}, "medium": {"n": 6_000}, "large": {"n": 12_000}},
    },
    # Dynamic-graph workloads (no Table-1 row; sizes mirror qsort's, and
    # quad's tolerance grid deepens the adaptive tree one decade per step).
    "qsort_rec": {
        "S": {"small": {"n": 10_000}, "medium": {"n": 20_000}, "large": {"n": 50_000}},
        "N": {"small": {"n": 10_000}, "medium": {"n": 20_000}, "large": {"n": 50_000}},
        "C": {"small": {"n": 3_000}, "medium": {"n": 6_000}, "large": {"n": 12_000}},
    },
    "quad": {
        t: {
            "small": {"eps": 1e-4},
            "medium": {"eps": 1e-6},
            "large": {"eps": 1e-8},
        }
        for t in TARGETS
    },
    "susan": {
        t: {
            "small": {"w": 256, "h": 288},
            "medium": {"w": 512, "h": 576},
            "large": {"w": 1024, "h": 576},
        }
        for t in TARGETS
    },
    "fft": {
        t: {"small": {"n": 32}, "medium": {"n": 64}, "large": {"n": 128}}
        for t in TARGETS
    },
}


def register(bench: "Benchmark") -> "Benchmark":
    BENCHMARKS[bench.name] = bench
    return bench


def get_benchmark(name: str) -> "Benchmark":
    return BENCHMARKS[name]


def problem_sizes(bench: str, target: str = "S") -> Dict[str, ProblemSize]:
    """The S/M/L grid of one benchmark for one target platform."""
    table = _SIZES[bench][target]
    return {
        label: ProblemSize(bench, target, label, dict(params))
        for label, params in table.items()
    }


# -- inputs and oracles ----------------------------------------------------------
#: Entries each memoised input/oracle function keeps: the sizes one sweep
#: alternates between (a figure's S/N/C variants of one label), not a grid.
MEMO_SIZE = 4


def memo_readonly(fn: Callable) -> Callable:
    """Memoise a deterministic input generator or oracle.

    *fn* is a pure function of the size parameters returning one array or
    a tuple of arrays — what every job of a ``(bench, size)`` cell would
    otherwise regenerate.  The arrays come back frozen
    (``setflags(write=False)``): ``build``/prologue bodies *copy from*
    them into the fresh ``Environment``, ``verify`` *compares against*
    them, and a write into one raises ``ValueError`` instead of
    corrupting every later run.
    """

    @functools.lru_cache(maxsize=MEMO_SIZE)
    @functools.wraps(fn)
    def cached(*params):
        out = fn(*params)
        for array in out if isinstance(out, tuple) else (out,):
            array.setflags(write=False)
        return out

    return cached


def assert_allclose(actual, desired, rtol: float = 1e-7, atol: float = 0.0) -> None:
    """``np.testing.assert_allclose`` for ``verify``, quick when it passes.

    Equal shapes and exact equality (most of ``verify``'s comparisons are
    bit-identical), else ``np.isclose`` everywhere, is a pass there too
    (a NaN is never equal or close, an infinity only to itself), so that
    case returns at once.  Anything else — a value out of tolerance, a
    NaN, a shape mismatch — goes to NumPy, which accepts it or raises its
    own message.
    """
    a, d = np.asarray(actual), np.asarray(desired)
    if a.shape == d.shape and (
        np.array_equal(a, d) or np.isclose(a, d, rtol=rtol, atol=atol).all()
    ):
        return
    np.testing.assert_allclose(actual, desired, rtol=rtol, atol=atol)


# -- decomposition helpers -----------------------------------------------------
#: Graph-construction modes every app's ``build`` accepts: arcs declared
#: by hand (the paper's DDMCPP style) or derived from the DThreads'
#: access summaries (:meth:`~repro.core.builder.ProgramBuilder.auto_depends`).
DEPS_MODES = ("declared", "derived")


def finish_graph(builder, deps: str, declare) -> None:
    """Close a builder's graph in the requested *deps* mode.

    ``"declared"`` runs *declare()* (the hand-written ``depends`` calls);
    ``"derived"`` computes the arcs from the access summaries instead.
    Control arcs that carry no data (conditional arcs, arcs into threads
    without accesses) must be declared outside *declare* — the deriver
    cannot see them in either mode.
    """
    if deps not in DEPS_MODES:
        raise ValueError(f"deps must be one of {DEPS_MODES}, got {deps!r}")
    if deps == "declared":
        declare()
    else:
        builder.auto_depends()


def nthreads_for(base_iterations: int, unroll: int) -> int:
    """DThread count for a parallel loop of *base_iterations* units.

    The paper's unroll factor makes each DThread *unroll* times coarser;
    we never go below one thread.
    """
    if unroll < 1:
        raise ValueError("unroll must be >= 1")
    return max(1, math.ceil(base_iterations / unroll))


def chunk_bounds(total: int, nchunks: int, i: int) -> tuple[int, int]:
    """Balanced [lo, hi) bounds of chunk *i* of *total* items."""
    base, rem = divmod(total, nchunks)
    lo = i * base + min(i, rem)
    hi = lo + base + (1 if i < rem else 0)
    return lo, hi
