"""ASCII renderers for the paper's tables and figures."""

from __future__ import annotations

from repro.analysis.speedup import FigureGrid
from repro.apps.common import _SIZES, SIZE_LABELS

__all__ = ["render_table1", "render_grid", "render_bars"]

_DESCRIPTIONS = {
    "trapez": ("kernel", "Trapezoidal rule for integration"),
    "mmult": ("kernel", "Matrix multiply"),
    "qsort": ("MiBench", "Array sorting"),
    "susan": ("MiBench", "Image recognition / smoothing"),
    "fft": ("NAS", "FFT on a matrix of complex numbers"),
}


def _fmt_params(bench: str, params: dict) -> str:
    if bench == "trapez":
        return f"2^{params['k']}"
    if bench in ("mmult", "fft"):
        n = params["n"]
        return f"{n}x{n}"
    if bench == "qsort":
        return f"{params['n'] // 1000}K"
    return f"{params['w']}x{params['h']}"  # susan, the last of Table 1


def render_table1() -> str:
    """Regenerate Table 1: workload description and problem sizes."""
    lines = [
        "Table 1. Experimental workload description and problem sizes.",
        f"{'Benchmark':<10} {'Source':<8} {'Description':<38} "
        f"{'Tgt':<5} {'Small':>10} {'Medium':>10} {'Large':>10}",
        "-" * 95,
    ]
    for bench in ("trapez", "mmult", "qsort", "susan", "fft"):
        source, desc = _DESCRIPTIONS[bench]
        per_target = _SIZES[bench]
        # Group identical target rows (the paper prints e.g. "S,N,C").
        grouping: dict[tuple, list[str]] = {}
        for target in ("S", "N", "C"):
            key = tuple(
                _fmt_params(bench, per_target[target][label]) for label in SIZE_LABELS
            )
            grouping.setdefault(key, []).append(target)
        first = True
        for key, targets in grouping.items():
            name = bench.upper() if first else ""
            src = source if first else ""
            dsc = desc if first else ""
            first = False
            lines.append(
                f"{name:<10} {src:<8} {dsc:<38} {','.join(targets):<5} "
                f"{key[0]:>10} {key[1]:>10} {key[2]:>10}"
            )
    return "\n".join(lines)


def render_grid(grid: FigureGrid, title: str) -> str:
    """Figure 5/6/7-style table: speedup per benchmark/kernels/size."""
    lines = [title, ""]
    header = f"{'benchmark':<9} {'kernels':>7} " + "".join(
        f"{s:>9}" for s in grid.sizes
    )
    lines.append(header)
    lines.append("-" * len(header))
    for bench in grid.benches:
        for nk in grid.kernel_counts:
            row = f"{bench.upper():<9} {nk:>7} "
            for size in grid.sizes:
                ev = grid.get(bench, nk, size)
                row += f"{ev.speedup:>9.2f}" if ev is not None else f"{'-':>9}"
            lines.append(row)
        lines.append("")
    top = grid.kernel_counts[-1]
    lines.append(
        f"average speedup at {top} kernels (large): "
        f"{grid.average(top):.2f}"
    )
    return "\n".join(lines)


def render_bars(grid: FigureGrid) -> str:
    """Paper-figure-style horizontal bars for the large input: one group
    per benchmark, one bar per kernel count, scaled to the ideal (max
    kernel count)."""
    top = max(grid.kernel_counts)
    width = 50
    lines = [f"speedup bars (large size; full width = {top}x ideal)"]
    for bench in grid.benches:
        lines.append(bench.upper())
        for nk in grid.kernel_counts:
            ev = grid.get(bench, nk, "large")
            if ev is None:
                continue
            filled = int(round(ev.speedup / top * width))
            bar = "█" * min(filled, width)
            lines.append(f"  {nk:>3} |{bar:<{width}}| {ev.speedup:5.2f}")
    return "\n".join(lines)
