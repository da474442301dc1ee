"""Shared configuration for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper (see
DESIGN.md's experiment index).  Two knobs keep runtimes sane:

* ``TFLUX_BENCH_FULL=1`` runs the paper's complete grids (all sizes, the
  full unroll sweep).  The default is a reduced grid that still covers
  every benchmark/kernel-count series but trims the unroll sweep, so the
  whole harness finishes in minutes.
* Results print through ``report()`` so ``pytest benchmarks/
  --benchmark-only -s`` shows the paper-style tables.

Every grid fans out through :mod:`repro.exec`, so two more environment
knobs apply to the whole harness (see docs/simulation.md, "Running the
harness fast"):

* ``TFLUX_JOBS=N`` (or ``auto``) runs the independent grid cells in N
  worker processes; results are bit-identical to the serial run.
* ``TFLUX_CACHE_DIR=path`` memoises each simulation on disk, keyed by
  the full job spec + cost-model parameters + a fingerprint of the
  ``repro`` sources — re-running an unchanged harness is near-instant.
"""

from __future__ import annotations

import os

import pytest

from repro.exec import UNROLL_LADDER

FULL = bool(int(os.environ.get("TFLUX_BENCH_FULL", "0")))

#: Unroll grids (the paper sweeps 1..64; the reduced grid keeps the
#: decision points that matter per platform).
UNROLLS_FULL = UNROLL_LADDER
UNROLLS_HARD = UNROLLS_FULL if FULL else (2, 8)
UNROLLS_SOFT = UNROLLS_FULL if FULL else (8, 32, 64)
UNROLLS_CELL = UNROLLS_FULL if FULL else (16, 64)

SIZES = ("small", "medium", "large") if FULL else ("small", "large")

#: Thread-count cap for the simulated sweeps (full = the paper-scale cap).
MAX_THREADS = 4096 if FULL else 1024


def report(text: str) -> None:
    """Print a paper-style table (visible with -s; always in captured logs)."""
    print("\n" + text)


@pytest.fixture(scope="session")
def bench_mode() -> str:
    return "full" if FULL else "reduced"
