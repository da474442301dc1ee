"""A3 — §6.1.2 ablation: speedup vs problem size.

"for all cases the speedup increases for larger problem sizes.  This is
justified by the fact that as the benchmark's execution time increases
the parallelization overhead is amortized."
"""

import pytest

from benchmarks.conftest import report
from repro.analysis import FIGURE5
from repro.apps import problem_sizes
from repro.exec import EvalRequest, evaluate_many
from repro.platforms import TFluxHard, TFluxSoft

BENCHES = FIGURE5.benches
SIZES = ("small", "medium", "large")


def _requests(platform, bench_name: str, nkernels: int) -> list[EvalRequest]:
    grid = problem_sizes(bench_name, platform.target)
    return [
        EvalRequest(
            platform=platform,
            bench=bench_name,
            size=grid[label],
            nkernels=nkernels,
            unrolls=(4, 16),
            verify=False,
            max_threads=1024,
        )
        for label in SIZES
    ]


def size_series(platform, bench_name: str, nkernels: int) -> dict[str, float]:
    evs = evaluate_many(_requests(platform, bench_name, nkernels))
    return {label: ev.speedup for label, ev in zip(SIZES, evs)}


@pytest.fixture(scope="module")
def hard_series():
    # The full 5-benchmark x 3-size grid as one 30-job exec batch.
    plat = TFluxHard()
    requests = [r for b in BENCHES for r in _requests(plat, b, nkernels=27)]
    evs = iter(evaluate_many(requests))
    return {b: {label: next(evs).speedup for label in SIZES} for b in BENCHES}


def test_size_table(hard_series):
    lines = [
        "A3 — speedup vs problem size (TFluxHard, 27 kernels)",
        f"{'benchmark':<9} " + "".join(f"{s:>9}" for s in SIZES),
    ]
    for bench, row in hard_series.items():
        lines.append(
            f"{bench.upper():<9} " + "".join(f"{row[s]:>9.2f}" for s in SIZES)
        )
    report("\n".join(lines))


def test_speedup_monotone_in_size(hard_series):
    """Codes with headroom gain with size; codes already at the linear
    ceiling (TRAPEZ/SUSAN ~25x on 27 kernels) may plateau within a few
    percent, so the tolerance is loose there."""
    for bench, row in hard_series.items():
        assert row["large"] >= row["small"] * 0.90, f"{bench}: {row}"
    gains = [row["large"] - row["small"] for row in hard_series.values()]
    assert sum(gains) > 0, f"aggregate trend not positive: {hard_series}"


def test_largest_gain_for_overhead_bound_codes(hard_series):
    """Benchmarks whose threads are finest at a given size gain the most
    from growing the input (more work per DThread)."""
    gains = {
        b: hard_series[b]["large"] / max(hard_series[b]["small"], 1e-9)
        for b in BENCHES
    }
    assert max(gains.values()) > 1.02


def test_soft_platform_also_monotone():
    plat = TFluxSoft()
    row = size_series(plat, "trapez", nkernels=6)
    assert row["large"] >= row["small"] * 0.95
