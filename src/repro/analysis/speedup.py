"""Sweep drivers regenerating the paper's figures.

A *figure grid* is the paper's measurement matrix: benchmarks × kernel
counts × problem sizes, each cell holding the best-over-unrolls speedup
(the §5 protocol implemented by
:meth:`repro.platforms.base.Platform.evaluate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.apps import problem_sizes
from repro.exec import UNROLL_LADDER, EvalRequest, evaluate_many
from repro.platforms.base import Evaluation, Platform

__all__ = ["FigureGrid", "sweep_figure"]


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

    def average(self, nkernels: int, size: str = "large") -> float:
        values = [
            self.cells[(b, nkernels, size)].speedup
            for b in self.benches
            if (b, nkernels, size) in self.cells
        ]
        return sum(values) / len(values) if values else 0.0


def sweep_figure(
    platform: Platform,
    benches: Sequence[str],
    kernel_counts: Sequence[int],
    sizes: Sequence[str] = ("small", "medium", "large"),
    unrolls: Sequence[int] = UNROLL_LADDER,
    verify: bool = False,
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
                        verify=verify,
                        max_threads=max_threads,
                    )
                )
                keys.append((bench_name, nk, size_label))
    for key, evaluation in zip(keys, evaluate_many(requests)):
        grid.cells[key] = evaluation
    return grid
