"""Sweep drivers regenerating the paper's figures.

A *figure grid* is the paper's measurement matrix: benchmarks × kernel
counts × problem sizes, each cell holding the best-over-unrolls speedup
(the §5 protocol implemented by
:meth:`repro.platforms.base.Platform.evaluate`).

The three paper figures are defined once, here (:data:`FIGURE5`,
:data:`FIGURE6`, :data:`FIGURE7`): the ``benchmarks/`` harness asserts
their claims and :mod:`repro.analysis.experiments` records them, both by
calling :meth:`PaperFigure.sweep`.  ``TFLUX_BENCH_FULL=1`` selects the
paper's complete grids (all sizes, the full unroll ladder, ~10x slower);
:func:`full_grids` is its one reader.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.analysis.calibration import PAPER
from repro.apps import problem_sizes
from repro.exec import UNROLL_LADDER, EvalRequest, evaluate_many
from repro.platforms import TFluxCell, TFluxHard, TFluxSoft
from repro.platforms.base import Evaluation, Platform

__all__ = [
    "FIGURE5",
    "FIGURE6",
    "FIGURE7",
    "FIGURES",
    "FigureGrid",
    "PaperFigure",
    "full_grids",
    "granularity_curves",
    "granularity_request",
    "grid_max_threads",
    "grid_sizes",
    "sweep_figure",
    "unroll_reaching",
]


def full_grids() -> bool:
    """True when ``TFLUX_BENCH_FULL=1`` asks for the paper's complete
    grids; the default reduced grids cover every benchmark/kernel-count
    series but trim the sizes and the unroll sweep."""
    return bool(int(os.environ.get("TFLUX_BENCH_FULL", "0")))


def grid_sizes(full: bool) -> tuple[str, ...]:
    """Problem-size labels of a figure sweep."""
    return ("small", "medium", "large") if full else ("small", "large")


def grid_max_threads(full: bool) -> int:
    """Thread-count cap of a figure sweep (full = the paper-scale cap)."""
    return 4096 if full else 1024


@dataclass
class FigureGrid:
    """Results of one figure's sweep."""

    platform: str
    benches: list[str]
    kernel_counts: list[int]
    sizes: list[str]
    #: (bench, nkernels, size_label) -> Evaluation
    cells: dict[tuple[str, int, str], Evaluation] = field(default_factory=dict)

    def speedup(self, bench: str, nkernels: int, size: str) -> float:
        return self.cells[(bench, nkernels, size)].speedup

    def get(self, bench: str, nkernels: int, size: str) -> Optional[Evaluation]:
        return self.cells.get((bench, nkernels, size))

    def average(self, nkernels: int) -> float:
        """Mean speedup over the benchmarks at *nkernels*, large input
        (the average the paper prints)."""
        values = [
            self.cells[(b, nkernels, "large")].speedup
            for b in self.benches
            if (b, nkernels, "large") in self.cells
        ]
        return sum(values) / len(values) if values else 0.0


def sweep_figure(
    platform: Platform,
    benches: Sequence[str],
    kernel_counts: Sequence[int],
    sizes: Sequence[str] = ("small", "medium", "large"),
    unrolls: Sequence[int] = UNROLL_LADDER,
    max_threads: int = 2048,
) -> FigureGrid:
    """Run the full grid of one figure on *platform*.

    The whole grid is flattened into independent (cell × unroll) jobs
    and driven through :mod:`repro.exec` in one batch, so ``TFLUX_JOBS``
    parallelises across the entire figure and ``TFLUX_CACHE_DIR`` turns
    repeated sweeps into cache hits.  Cell results come back in
    deterministic grid order regardless of worker scheduling.
    """
    grid = FigureGrid(
        platform=platform.name,
        benches=list(benches),
        kernel_counts=list(kernel_counts),
        sizes=list(sizes),
    )
    requests: list[EvalRequest] = []
    keys: list[tuple[str, int, str]] = []
    for bench_name in benches:
        size_grid = problem_sizes(bench_name, platform.target)
        for size_label in sizes:
            size = size_grid[size_label]
            for nk in kernel_counts:
                requests.append(
                    EvalRequest(
                        platform=platform,
                        bench=bench_name,
                        size=size,
                        nkernels=nk,
                        unrolls=tuple(unrolls),
                        verify=False,
                        max_threads=max_threads,
                    )
                )
                keys.append((bench_name, nk, size_label))
    for key, evaluation in zip(keys, evaluate_many(requests)):
        grid.cells[key] = evaluation
    return grid


def unroll_reaching(per_unroll: Mapping[int, float], fraction: float) -> int:
    """The smallest unroll factor whose speedup is within *fraction* of
    the curve's best — §6.2.2's "how coarse must DThreads be" measure."""
    best = max(per_unroll.values())
    return min(u for u, s in per_unroll.items() if s >= fraction * best)


def granularity_request(platform: Platform, bench: str, nkernels: int) -> EvalRequest:
    """The A2 cell: *bench* on its small input over the whole unroll
    ladder, thread cap lifted so the unroll factor alone sets DThread
    size."""
    return EvalRequest(
        platform=platform,
        bench=bench,
        size=problem_sizes(bench, platform.target)["small"],
        nkernels=nkernels,
        unrolls=UNROLL_LADDER,
        verify=False,
        max_threads=8192,
    )


def granularity_curves() -> dict[str, dict[int, float]]:
    """A2 (§6.2.2): platform name -> speedup per unroll factor of
    fine-grained TRAPEZ, 8 kernels on TFluxHard, 6 on Soft and Cell."""
    evs = evaluate_many(
        [
            granularity_request(TFluxHard(), "trapez", 8),
            granularity_request(TFluxSoft(), "trapez", 6),
            granularity_request(TFluxCell(), "trapez", 6),
        ]
    )
    return {ev.platform: ev.per_unroll for ev in evs}


@dataclass(frozen=True)
class PaperFigure:
    """One of the paper's speedup figures: what is swept, and the cells
    the figure prints a value for."""

    platform: Callable[[], Platform]
    benches: tuple[str, ...]
    kernel_counts: tuple[int, ...]
    #: The reduced grid keeps the unroll decision points that matter on
    #: this platform; the full grid is :data:`UNROLL_LADDER`.
    reduced_unrolls: tuple[int, ...]
    #: bench -> printed speedup at ``kernel_counts[-1]``, large input.
    paper: Mapping[str, float]

    def unrolls(self, full: bool) -> tuple[int, ...]:
        return UNROLL_LADDER if full else self.reduced_unrolls

    def sweep(
        self,
        kernel_counts: Optional[Sequence[int]] = None,
        sizes: Optional[Sequence[str]] = None,
    ) -> FigureGrid:
        """Run the figure's grid (full or reduced, per :func:`full_grids`),
        or the sub-grid *kernel_counts* × *sizes* of it."""
        full = full_grids()
        return sweep_figure(
            self.platform(),
            self.benches,
            kernel_counts or self.kernel_counts,
            sizes or grid_sizes(full),
            unrolls=self.unrolls(full),
            max_threads=grid_max_threads(full),
        )


_BENCHES = ("trapez", "mmult", "qsort", "susan", "fft")

FIGURE5 = PaperFigure(
    TFluxHard, _BENCHES, (2, 4, 8, 16, 27),
    reduced_unrolls=(2, 8), paper=PAPER.fig5_large_27,
)
FIGURE6 = PaperFigure(
    TFluxSoft, _BENCHES, (2, 4, 6),
    reduced_unrolls=(8, 32, 64), paper=PAPER.fig6_best_6,
)
#: The paper did not port FFT to the Cell.
FIGURE7 = PaperFigure(
    TFluxCell, _BENCHES[:4], (2, 4, 6),
    reduced_unrolls=(16, 64), paper=PAPER.fig7_best_6,
)
FIGURES = (FIGURE5, FIGURE6, FIGURE7)
