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
from repro.analysis import granularity_curves, granularity_request, unroll_reaching
from repro.exec import UNROLL_LADDER, evaluate_many
from repro.platforms import TFluxSoft

UNROLLS = UNROLL_LADDER


@pytest.fixture(scope="module")
def curves():
    # The grid EXPERIMENTS.md's "A2 in numbers" records: one repro.exec
    # batch, 21 simulations that fan out under TFLUX_JOBS.
    return granularity_curves()


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


def test_hard_saturates_at_small_unroll(curves):
    """TFluxHard reaches ~best speedup by unroll 2-4."""
    u = unroll_reaching(curves["tfluxhard"], 0.95)
    assert u <= 4, f"hardware TSU needed unroll {u}"


def test_soft_needs_much_coarser_threads(curves):
    """TFluxSoft needs a much larger unroll factor than TFluxHard."""
    u_hard = unroll_reaching(curves["tfluxhard"], 0.95)
    u_soft = unroll_reaching(curves["tfluxsoft"], 0.95)
    assert u_soft >= 4 * u_hard, f"soft {u_soft} vs hard {u_hard}"
    assert u_soft >= 16, f"paper: soft needs >16, got {u_soft}"


def test_cell_needs_at_least_soft_granularity(curves):
    u_soft = unroll_reaching(curves["tfluxsoft"], 0.90)
    u_cell = unroll_reaching(curves["tfluxcell"], 0.90)
    assert u_cell >= u_soft, f"cell {u_cell} vs soft {u_soft}"


def test_fine_threads_hurt_soft_more_than_hard(curves):
    """At unroll 1 the software TSU loses far more efficiency."""
    hard_loss = curves["tfluxhard"][1] / max(curves["tfluxhard"].values())
    soft_loss = curves["tfluxsoft"][1] / max(curves["tfluxsoft"].values())
    assert soft_loss < hard_loss


@pytest.fixture(scope="module")
def per_bench_curves():
    """Unroll curves for every benchmark on TFluxSoft (small inputs,
    uncapped fine threads)."""
    from repro.apps import BENCHMARKS

    platform = TFluxSoft()
    names = sorted(BENCHMARKS)
    evs = evaluate_many([granularity_request(platform, name, 6) for name in names])
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
