"""A7 — dispatch policy extension: SM-local vs stealing.

§3.1 says the TSU "replies with the identifier of one of the ready
DThreads", preferring spatial locality.  The baseline implementation is
strictly SM-local (a kernel only receives DThreads placed in its own
Synchronization Memory); this ablation measures the locality-relaxed
variant in which an idle kernel may be handed another SM's ready DThread.

Expected shape: near-zero effect on the balanced Figure-5 workloads
(static contiguous placement already balances them), real gains on
skew — QSORT's merge tail is the paper workload where idle kernels exist
while work is pending.
"""

import pytest

from benchmarks.conftest import report
from repro.analysis import FIGURE5
from repro.apps import problem_sizes
from repro.exec import JobSpec, run_jobs
from repro.platforms import TFluxHard

BENCHES = FIGURE5.benches


def _spec(bench_name: str, allow_stealing: bool) -> JobSpec:
    return JobSpec(
        platform=TFluxHard(),
        bench=bench_name,
        size=problem_sizes(bench_name, "S")["large"],
        nkernels=27,
        unroll=4,
        max_threads=1024,
        verify=True,
        mode="execute",
        allow_stealing=allow_stealing,
    )


@pytest.fixture(scope="module")
def sweep():
    # 10 (benchmark, policy) simulations as one exec batch.
    specs = [
        _spec(bench, steal) for bench in BENCHES for steal in (False, True)
    ]
    outcomes = iter(run_jobs(specs))
    return {
        bench: {
            steal: (out.region_cycles, out.result.counters["tsu.steals"])
            for steal in (False, True)
            for out in (next(outcomes),)
        }
        for bench in BENCHES
    }


def test_stealing_table(sweep):
    lines = [
        "A7 — SM-local vs stealing dispatch (TFluxHard, 27 kernels, large)",
        f"{'benchmark':<9} {'local cycles':>13} {'steal cycles':>13} "
        f"{'gain':>6} {'steals':>7}",
    ]
    for bench, row in sweep.items():
        local, _ = row[False]
        steal, nsteals = row[True]
        lines.append(
            f"{bench.upper():<9} {local:>13,} {steal:>13,} "
            f"{local / steal:>5.2f}x {nsteals:>7}"
        )
    report("\n".join(lines))


def test_stealing_never_hurts_materially(sweep):
    for bench, row in sweep.items():
        local, _ = row[False]
        steal, _ = row[True]
        assert steal <= local * 1.03, f"{bench}: stealing regressed"


def test_balanced_codes_unaffected(sweep):
    """TRAPEZ/SUSAN are already balanced: stealing is ~neutral."""
    for bench in ("trapez", "susan"):
        local, _ = sweep[bench][False]
        steal, _ = sweep[bench][True]
        assert steal == pytest.approx(local, rel=0.05)


def test_steals_happen_where_imbalance_exists(sweep):
    total_steals = sum(row[True][1] for row in sweep.values())
    assert total_steals > 0
