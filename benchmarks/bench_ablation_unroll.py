"""A2 — §5/§6.2.2/§6.3 ablation: the unrolling (DThread granularity) study.

"for the TFluxHard the best speedup can be reached even with small unroll
factors (2 or 4) whereas for TFluxSoft the loops needed to be unrolled
more than 16 times" — and the Cell needs more still.

To expose the effect we run TRAPEZ with its *fine* base granularity (64
intervals ≈ 800 cycles per DThread at unroll 1) on the small input with
the thread cap lifted, so the unroll factor genuinely controls DThread
size instead of being masked by the sweep cap.
"""

import pytest

from benchmarks.conftest import report
from repro.apps import problem_sizes
from repro.exec import UNROLL_LADDER, EvalRequest, evaluate_many
from repro.platforms import TFluxCell, TFluxHard, TFluxSoft

UNROLLS = UNROLL_LADDER
MAX_THREADS = 8192


def _request(platform, bench_name: str, nkernels: int) -> EvalRequest:
    return EvalRequest(
        platform=platform,
        bench=bench_name,
        size=problem_sizes(bench_name, platform.target)["small"],
        nkernels=nkernels,
        unrolls=UNROLLS,
        verify=False,
        max_threads=MAX_THREADS,
    )


def efficiency_curve(platform, nkernels: int) -> dict[int, float]:
    """Speedup per unroll factor (TRAPEZ small, fine threads)."""
    return evaluate_many([_request(platform, "trapez", nkernels)])[0].per_unroll


@pytest.fixture(scope="module")
def curves():
    # One repro.exec batch: all three platforms' unroll grids run as
    # independent jobs (21 simulations fan out under TFLUX_JOBS).
    evs = evaluate_many([
        _request(TFluxHard(), "trapez", 8),
        _request(TFluxSoft(), "trapez", 6),
        _request(TFluxCell(), "trapez", 6),
    ])
    return {ev.platform: ev.per_unroll for ev in evs}


def test_unroll_table(curves):
    lines = [
        "A2 — unroll factor vs speedup (TRAPEZ small, fine-grained threads)",
        f"{'platform':<10} " + "".join(f"u={u:<7}" for u in UNROLLS),
    ]
    for name, curve in curves.items():
        lines.append(
            f"{name:<10} " + "".join(f"{curve[u]:<9.2f}" for u in UNROLLS)
        )
    report("\n".join(lines))


def _unroll_reaching(curve: dict[int, float], fraction: float) -> int:
    best = max(curve.values())
    for u in UNROLLS:
        if curve[u] >= fraction * best:
            return u
    return UNROLLS[-1]


def test_hard_saturates_at_small_unroll(curves):
    """TFluxHard reaches ~best speedup by unroll 2-4."""
    u = _unroll_reaching(curves["tfluxhard"], 0.95)
    assert u <= 4, f"hardware TSU needed unroll {u}"


def test_soft_needs_much_coarser_threads(curves):
    """TFluxSoft needs a much larger unroll factor than TFluxHard."""
    u_hard = _unroll_reaching(curves["tfluxhard"], 0.95)
    u_soft = _unroll_reaching(curves["tfluxsoft"], 0.95)
    assert u_soft >= 4 * u_hard, f"soft {u_soft} vs hard {u_hard}"
    assert u_soft >= 16, f"paper: soft needs >16, got {u_soft}"


def test_cell_needs_at_least_soft_granularity(curves):
    u_soft = _unroll_reaching(curves["tfluxsoft"], 0.90)
    u_cell = _unroll_reaching(curves["tfluxcell"], 0.90)
    assert u_cell >= u_soft, f"cell {u_cell} vs soft {u_soft}"


def test_fine_threads_hurt_soft_more_than_hard(curves):
    """At unroll 1 the software TSU loses far more efficiency."""
    hard_loss = curves["tfluxhard"][1] / max(curves["tfluxhard"].values())
    soft_loss = curves["tfluxsoft"][1] / max(curves["tfluxsoft"].values())
    assert soft_loss < hard_loss


def test_ablation_benchmark(benchmark):
    platform = TFluxHard()
    result = benchmark.pedantic(
        lambda: efficiency_curve(platform, nkernels=4)[8],
        rounds=1,
        iterations=1,
    )
    assert result > 1.0


@pytest.fixture(scope="module")
def per_bench_curves():
    """Unroll curves for every benchmark on TFluxSoft (small inputs,
    uncapped fine threads)."""
    from repro.apps import BENCHMARKS

    platform = TFluxSoft()
    names = sorted(BENCHMARKS)
    evs = evaluate_many([_request(platform, name, 6) for name in names])
    return {name: ev.per_unroll for name, ev in zip(names, evs)}


def test_per_benchmark_unroll_table(per_bench_curves):
    lines = [
        "A2b — unroll factor vs speedup per benchmark (TFluxSoft, 6 kernels, small)",
        f"{'benchmark':<9} " + "".join(f"u={u:<7}" for u in UNROLLS),
    ]
    for name, curve in per_bench_curves.items():
        lines.append(
            f"{name:<9} " + "".join(f"{curve[u]:<9.2f}" for u in UNROLLS)
        )
    report("\n".join(lines))


def test_fine_grained_benchmarks_improve_with_unrolling(per_bench_curves):
    """Benchmarks whose unroll-1 DThreads are *fine* (TRAPEZ's 64-interval
    chunks, SUSAN's single rows, FFT's single rows) gain substantially
    from coarsening on the software TSU.  MMULT is exempt — one row of a
    256x256 multiply is already ~300K cycles, so its unroll curve is flat
    (and falls once few threads remain); QSORT trades part-count for
    granularity and prefers fine parts.  That split is itself the paper's
    point: unrolling matters exactly where DThreads are small."""
    for name in ("trapez", "susan", "fft"):
        curve = per_bench_curves[name]
        best = max(curve.values())
        assert best > curve[1] * 1.5, f"{name}: {curve}"
    # And the coarse-bodied benchmark really is flat rather than helped.
    mm = per_bench_curves["mmult"]
    assert max(mm.values()) < mm[1] * 1.15
