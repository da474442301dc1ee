"""Repeated-measurement statistics for native (wall-clock) runs.

"While for the simulated architecture the results were collected with a
single run, for the native execution, multiple runs were performed in
order for the results to be statistically significant" (paper §5).  The
simulated machines are deterministic, so this module only concerns the
:class:`~repro.runtime.native.NativeRuntime`: it repeats a run factory,
collects wall times, and reports mean / spread / a confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.obs import RunRecord

__all__ = ["Measurement", "measure_native", "summarize"]

#: Two-sided 95% Student-t critical values by degrees of freedom (1..30);
#: beyond 30 the normal value is close enough.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 25: 2.060, 30: 2.042,
}


def _t95(df: int) -> float:
    if df <= 0:
        return float("inf")
    if df in _T95:
        return _T95[df]
    keys = sorted(_T95)
    for k in keys:
        if df < k:
            return _T95[k]
    return 1.96


@dataclass(frozen=True)
class Measurement:
    """Summary of repeated wall-clock measurements (seconds)."""

    samples: tuple[float, ...]
    mean: float
    stdev: float
    ci95_half_width: float

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def relative_ci(self) -> float:
        """CI half-width as a fraction of the mean (0 when mean is 0)."""
        return self.ci95_half_width / self.mean if self.mean else 0.0

    def __str__(self) -> str:
        return (
            f"{self.mean * 1e3:.2f}ms ± {self.ci95_half_width * 1e3:.2f}ms "
            f"(95% CI, n={self.n})"
        )


def summarize(samples: Sequence[float]) -> Measurement:
    """Mean, sample standard deviation, and a 95% t-interval."""
    if not samples:
        raise ValueError("need at least one sample")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return Measurement(tuple(samples), mean, 0.0, float("inf"))
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    stdev = math.sqrt(var)
    half = _t95(n - 1) * stdev / math.sqrt(n)
    return Measurement(tuple(samples), mean, stdev, half)


def measure_native(
    run_factory: Callable[[], RunRecord],
    runs: int = 5,
    warmup: int = 1,
) -> tuple[Measurement, RunRecord]:
    """Repeat a native execution; returns (statistics, last result).

    *run_factory* must build a fresh program and runtime each call
    (programs are single-run objects).  It may return either the live
    :class:`~repro.runtime.stats.RunResult` (a record plus the env) or
    an already-converted :class:`RunRecord`; only ``wall_seconds`` is
    read.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    for _ in range(warmup):
        run_factory()
    samples: list[float] = []
    last: RunRecord | None = None
    for _ in range(runs):
        last = run_factory()
        samples.append(last.wall_seconds)
    assert last is not None
    return summarize(samples), last
