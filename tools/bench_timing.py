#!/usr/bin/env python
"""Wall-clock timing for the three harness execution paths.

Runs a representative slice of the paper grid (a Figure-5-style
multi-benchmark evaluate batch) three ways — serial, parallel
(``TFLUX_JOBS``), and warm-cache — verifies all three produce identical
cycle numbers, times the coherence-hot FFT/MMULT cells whose
invalidation sweeps stress the two-level sharer directory (cycles must
match the flat-mask seed bit-for-bit), measures the ``unrolls="auto"`` adaptive search against
the full A2 factor grid (same best cells, fewer simulations), measures
the dynamic race detector's on-path overhead (instrumented vs plain
functional runs, plus a simulated cycle-identity check), and writes the
measurements to ``BENCH_PR10.json``.

The parallel measurement is skipped (and annotated in the JSON) on
hosts with ≤2 CPUs, where the pool can only add fork overhead.

Usage::

    PYTHONPATH=src python tools/bench_timing.py [--jobs N] [--out FILE]

The grid is sized to take tens of seconds serially so pool start-up is
amortised; ``--quick`` shrinks it for smoke runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from repro.apps import get_benchmark, problem_sizes
from repro.exec import (
    UNROLL_LADDER,
    EvalRequest,
    ResultCache,
    clear_baseline_memo,
    evaluate_many,
)
from repro.platforms import TFluxHard, TFluxSoft


def build_requests(quick: bool) -> list[EvalRequest]:
    benches = ("trapez", "mmult", "qsort", "susan", "fft")
    cells: list[EvalRequest] = []
    for platform, nkernels, unrolls in (
        (TFluxHard(), 27, (2, 8)),
        (TFluxSoft(), 6, (8, 32)),
    ):
        for bench in benches:
            cells.append(
                EvalRequest(
                    platform=platform,
                    bench=bench,
                    size=problem_sizes(bench, platform.target)[
                        "small" if quick else "large"
                    ],
                    nkernels=nkernels,
                    unrolls=unrolls,
                    verify=False,
                    max_threads=1024,
                )
            )
    return cells


def fingerprint(evs) -> list[tuple[str, str, int, int]]:
    return [
        (ev.platform, ev.bench, ev.parallel_cycles, ev.sequential_cycles)
        for ev in evs
    ]


# -- coherence-hot cells: the FastMemorySystem invalidation sweeps -------------
#: Cycle fingerprint of these cells on the PR-4/PR-5 tree (flat 64-bit
#: sharer mask).  The two-level (node, core) directory must reproduce it
#: bit for bit — the perf contract is "no slower AND no different".
COHERENCE_SEED_FINGERPRINT = [
    ("tfluxhard", "fft", 129722, 2444672),
    ("tfluxhard", "mmult", 4285832, 89840128),
]


def coherence_requests() -> list[EvalRequest]:
    """FFT + MMULT on the 27-kernel hardware platform: producer/consumer
    row traffic and block reuse make the sharer-directory sweeps the hot
    loop of these cells."""
    return [
        EvalRequest(
            platform=TFluxHard(),
            bench=bench,
            size=problem_sizes(bench, "S")["large"],
            nkernels=27,
            unrolls=(2, 8),
            verify=False,
            max_threads=1024,
        )
        for bench in ("fft", "mmult")
    ]


def time_coherence() -> dict:
    best, fp = None, None
    for _ in range(3):
        clear_baseline_memo()
        t0 = time.perf_counter()
        evs = evaluate_many(coherence_requests(), jobs=1, cache=None)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
        fp = fingerprint(evs)
    matches = fp == COHERENCE_SEED_FINGERPRINT
    flag = "" if matches else "  << CYCLES DIVERGE FROM SEED"
    print(f"{'coherence-hot (best of 3)':>28}: {best:8.2f}s{flag}")
    return {
        "seconds_best_of_3": round(best, 3),
        "fingerprint": [list(t) for t in fp],
        "matches_seed_fingerprint": matches,
    }


# -- A2: adaptive unroll search vs the full factor grid ------------------------
def _auto_unroll_requests() -> list[tuple[str, EvalRequest]]:
    """A2-style unroll-ablation cells spanning both single-chip
    platforms and the benchmarks whose best factors sit at different
    ends of the ladder (trapez peaks high, qsort peaks at 1)."""
    cells = [
        ("hard trapez nk=8", TFluxHard(), "trapez", 8),
        ("hard fft nk=4", TFluxHard(), "fft", 4),
        ("soft qsort nk=4", TFluxSoft(), "qsort", 4),
    ]
    return [
        (
            label,
            EvalRequest(
                platform=platform,
                bench=bench,
                size=problem_sizes(bench, platform.target)["small"],
                nkernels=nkernels,
                verify=False,
                max_threads=1024,
            ),
        )
        for label, platform, bench, nkernels in cells
    ]


def time_auto_unroll() -> dict:
    """Evaluate each A2 cell with the full 7-point grid and with
    ``unrolls="auto"``; the adaptive search must land on the same best
    cell (factor and speedup) while simulating fewer points."""
    import dataclasses

    labelled = _auto_unroll_requests()
    agrees = True
    rows = {}

    clear_baseline_memo()
    t0 = time.perf_counter()
    full = evaluate_many(
        [dataclasses.replace(r, unrolls=UNROLL_LADDER) for _, r in labelled],
        jobs=1,
        cache=None,
    )
    full_s = time.perf_counter() - t0

    clear_baseline_memo()
    t0 = time.perf_counter()
    auto = evaluate_many(
        [dataclasses.replace(r, unrolls="auto") for _, r in labelled],
        jobs=1,
        cache=None,
    )
    auto_s = time.perf_counter() - t0

    for (label, _), fev, aev in zip(labelled, full, auto):
        same = (
            fev.best_unroll == aev.best_unroll
            and fev.speedup == aev.speedup
            and fev.parallel_cycles == aev.parallel_cycles
        )
        agrees &= same
        rows[label] = {
            "best_unroll": aev.best_unroll,
            "speedup": round(aev.speedup, 4),
            "sims_full": len(fev.per_unroll),
            "sims_auto": len(aev.per_unroll),
            "same_best_cell": same,
        }
        flag = "" if same else "  << BEST CELL DIVERGES"
        print(
            f"{'A2 auto ' + label:>28}: {len(aev.per_unroll)}/"
            f"{len(fev.per_unroll)} sims, best u={aev.best_unroll}{flag}"
        )
    sims_full = sum(r["sims_full"] for r in rows.values())
    sims_auto = sum(r["sims_auto"] for r in rows.values())
    print(
        f"{'A2 auto totals':>28}: {sims_auto} vs {sims_full} sims, "
        f"{full_s:.2f}s -> {auto_s:.2f}s"
    )
    return {
        "same_best_cells": agrees,
        "simulations_full_grid": sims_full,
        "simulations_auto": sims_auto,
        "seconds_full_grid": round(full_s, 3),
        "seconds_auto": round(auto_s, 3),
        "cells": rows,
    }


# -- race-check instrumentation overhead ---------------------------------------
def time_check_overhead() -> dict:
    """Cost of the dynamic race detector (``--check-races``), two ways:

    * **on-path factor** — the same program run functionally plain vs
      instrumented (recording every access + the vector-clock analysis);
    * **timing neutrality** — a simulated run plain vs instrumented must
      be cycle-identical: recording wraps only the functional side, all
      cycle numbers still come from the declared access summaries.

    With checking off nothing is wrapped, so the plain numbers *are* the
    zero-overhead baseline.
    """
    from repro.check import instrument
    from repro.runtime.simdriver import SimulatedRuntime
    from repro.sim.machine import BAGLE_27

    rows = {}
    for bench_name in ("trapez", "qsort_rec", "quad"):
        bench = get_benchmark(bench_name)
        size = problem_sizes(bench_name, "S")["small"]

        def run(checked: bool) -> float:
            best = None
            for _ in range(3):
                prog = bench.build(size, unroll=2)
                session = instrument(prog) if checked else None
                t0 = time.perf_counter()
                prog.run_sequential()
                if session is not None:
                    report = session.report()
                    assert report.ok, report.format()
                dt = time.perf_counter() - t0
                best = dt if best is None or dt < best else best
            return best

        plain_s, checked_s = run(False), run(True)
        factor = checked_s / plain_s if plain_s else float("inf")
        rows[bench_name] = {
            "plain_seconds_best_of_3": round(plain_s, 4),
            "checked_seconds_best_of_3": round(checked_s, 4),
            "on_path_factor": round(factor, 2),
        }
        print(
            f"{'check ' + bench_name:>28}: {plain_s:7.3f}s -> "
            f"{checked_s:7.3f}s  ({factor:.1f}x when enabled)"
        )

    # Timing neutrality: simulate one cell plain and instrumented.
    def sim(checked: bool):
        prog = get_benchmark("trapez").build(
            problem_sizes("trapez", "S")["small"], unroll=8
        )
        if checked:
            instrument(prog)
        return SimulatedRuntime(prog, BAGLE_27, nkernels=8).run()

    plain, checked = sim(False), sim(True)
    identical = plain.cycles == checked.cycles
    flag = "" if identical else "  << CYCLES DIVERGE"
    print(
        f"{'check sim neutrality':>28}: {plain.cycles:,} cycles plain, "
        f"{checked.cycles:,} instrumented{flag}"
    )
    return {
        "cells": rows,
        "sim_cycles_plain": plain.cycles,
        "sim_cycles_checked": checked.cycles,
        "sim_cycles_identical": identical,
    }


def timed(label: str, fn):
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    print(f"{label:>28}: {dt:8.2f}s")
    return dt, out


def time_headline(cache_dir: str) -> dict[str, float]:
    """Time ``bench_headline.py`` twice against one fresh cache: cold then
    warm.  (The cache must not be shared with the grid above — its specs
    overlap bench_headline's, which would fake the cold number.)"""
    env = dict(os.environ, TFLUX_CACHE_DIR=cache_dir)
    env.setdefault("PYTHONPATH", "src")
    cmd = [
        sys.executable, "-m", "pytest",
        "benchmarks/bench_headline.py", "--benchmark-only", "-q", "-p", "no:cacheprovider",
    ]
    out: dict[str, float] = {}
    for label in ("cold", "warm"):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, capture_output=True)
        out[label] = round(time.perf_counter() - t0, 3)
        print(f"{'bench_headline ' + label:>28}: {out[label]:8.2f}s")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--out", default="BENCH_PR10.json")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument(
        "--no-headline", action="store_true",
        help="skip the repeated bench_headline.py cold/warm measurement",
    )
    args = ap.parse_args()

    requests = build_requests(args.quick)
    njobs = args.jobs
    cache_dir = tempfile.mkdtemp(prefix="tflux-bench-cache-")

    def fresh(fn):
        # Each timed path pays its own baselines: the in-process memo
        # would otherwise let the first path subsidise the rest.
        def run():
            clear_baseline_memo()
            return fn()

        return run

    try:
        serial_s, serial = timed(
            "serial (TFLUX_JOBS unset)",
            fresh(lambda: evaluate_many(requests, jobs=1, cache=None)),
        )
        ncpu = os.cpu_count() or 1
        if ncpu <= 2:
            # A pool wider than the host can only add fork overhead; the
            # measurement would time the scheduler, not the harness.
            parallel_s, parallel = None, None
            print(
                f"{'parallel (skipped)':>28}: host has {ncpu} CPU(s), "
                "pool would only add fork overhead"
            )
        else:
            parallel_s, parallel = timed(
                f"parallel (TFLUX_JOBS={njobs})",
                fresh(lambda: evaluate_many(requests, jobs=njobs, cache=None)),
            )
        cache = ResultCache(cache_dir)
        cold_s, _ = timed(
            "cache cold (serial + store)",
            fresh(lambda: evaluate_many(requests, jobs=1, cache=cache)),
        )
        warm_s, warm = timed(
            "cache warm",
            fresh(lambda: evaluate_many(requests, jobs=1, cache=cache)),
        )
        coherence = time_coherence()
        auto_unroll = time_auto_unroll()
        race_check = time_check_overhead()
        if args.no_headline:
            headline = None
        else:
            headline_cache = tempfile.mkdtemp(prefix="tflux-bench-headline-")
            try:
                headline = time_headline(headline_cache)
            finally:
                shutil.rmtree(headline_cache, ignore_errors=True)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    paths = [serial, warm] if parallel is None else [serial, parallel, warm]
    assert all(fingerprint(p) == fingerprint(serial) for p in paths), (
        "execution paths disagree on cycle numbers"
    )
    print(f"cycle numbers identical across all {len(paths)} paths")
    assert coherence["matches_seed_fingerprint"], (
        "two-level sharer directory diverged from the flat-mask seed cycles"
    )
    print("coherence-hot cells bit-identical to the flat-mask seed")
    assert auto_unroll["same_best_cells"], (
        "adaptive unroll search diverged from the full grid's best cells"
    )
    assert auto_unroll["simulations_auto"] < auto_unroll["simulations_full_grid"]
    print("adaptive unroll search matches the full grid with fewer simulations")
    assert race_check["sim_cycles_identical"], (
        "race-check instrumentation changed simulated cycles"
    )
    print("race-check instrumentation cycle-neutral under simulation")

    prev_serial = None
    if os.path.exists("BENCH_PR8.json"):
        with open("BENCH_PR8.json") as fh:
            prev_serial = json.load(fh).get("seconds", {}).get("serial")

    payload = {
        "grid": {
            "cells": len(requests),
            "jobs_per_cell": len(requests[0].unrolls),
            "quick": args.quick,
        },
        "host": {"cpu_count": os.cpu_count()},
        "seconds": {
            "serial": round(serial_s, 3),
            f"parallel_jobs{njobs}": (
                None if parallel_s is None else round(parallel_s, 3)
            ),
            "cache_cold": round(cold_s, 3),
            "cache_warm": round(warm_s, 3),
        },
        "speedup_vs_serial": {
            f"parallel_jobs{njobs}": (
                None if parallel_s is None else round(serial_s / parallel_s, 2)
            ),
            "cache_warm": round(serial_s / warm_s, 1),
        },
        "parallel_skipped": (
            None
            if parallel_s is not None
            else f"host has {os.cpu_count()} CPU(s); pool adds only fork overhead"
        ),
        "identical_cycles": True,
        "coherence_hot": coherence,
        "auto_unroll": auto_unroll,
        "race_check": race_check,
        "serial_seconds_prev_pr": prev_serial,
        "bench_headline_seconds": headline,
        "note": (
            "Parallel gains require real cores: on a 1-core host the pool "
            "only adds fork overhead, while TFLUX_JOBS=4 on a 4-core host "
            "tracks the core count (the jobs are independent, CPU-bound "
            "simulations with no shared state)."
        ),
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
