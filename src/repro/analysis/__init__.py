"""Evaluation analysis: paper reference data, sweeps, and renderers.

* :mod:`repro.analysis.calibration` — every reference value legible in the
  paper's Figures 5–7 and the headline averages, for paper-vs-measured
  comparison in ``EXPERIMENTS.md``;
* :mod:`repro.analysis.speedup` — the one definition of each paper
  figure (platform, benchmarks, kernel counts, reduced/full grids) and
  the sweep driver that regenerates its grid;
* :mod:`repro.analysis.tables` — ASCII renderers producing the same rows
  and series the paper reports.
"""

from repro.analysis.calibration import PAPER
from repro.analysis.speedup import (
    FIGURE5,
    FIGURE6,
    FIGURE7,
    FIGURES,
    FigureGrid,
    full_grids,
    granularity_curves,
    granularity_request,
    grid_max_threads,
    sweep_figure,
    unroll_reaching,
)
from repro.analysis.tables import render_grid, render_table1

__all__ = [
    "PAPER",
    "FIGURE5",
    "FIGURE6",
    "FIGURE7",
    "FIGURES",
    "FigureGrid",
    "full_grids",
    "granularity_curves",
    "granularity_request",
    "grid_max_threads",
    "sweep_figure",
    "unroll_reaching",
    "render_grid",
    "render_table1",
]
