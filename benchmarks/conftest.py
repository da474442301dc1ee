"""Shared configuration for the paper-evaluation harness.

Each ``bench_*`` file regenerates one table or figure of the paper, or
one beyond-paper extension (see DESIGN.md's experiment index), and
asserts its claims as plain tests: ``pytest benchmarks/`` runs them all,
none skipped (~40 s on the reduced grids), and ``-s`` shows the
paper-style tables printed through ``report()``.  Host timing is not
measured here — that is ``perf/``.

The figures themselves (platform, benchmarks, kernel counts, grids) are
defined once, in :mod:`repro.analysis.speedup`; ``TFLUX_BENCH_FULL=1``
switches them to the paper's complete grids (all sizes, the full unroll
sweep; slow).

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


def report(text: str) -> None:
    """Print a paper-style table (visible with -s; always in captured logs)."""
    print("\n" + text)
