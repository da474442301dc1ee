"""Reference values from the paper's evaluation (§6).

Only the bar labels actually printed in Figures 5–7 and the claims stated
in the text are encoded; bars without printed values are ``None`` (the
paper's figure renders them but the scan provides no number).  These
anchors drive the paper-vs-measured comparison and the *shape* assertions
in the benchmark harness — orderings and rough factors, never exact
matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PAPER", "PaperReference"]


@dataclass(frozen=True)
class PaperReference:
    """All encoded reference points."""

    #: Figure 5 — TFluxHard speedups, large problem size, by kernel count.
    #: Values printed on the figure for 27 kernels; the small-kernel bars
    #: print near-ideal values (2.0 / ~4.0 / ~7.9) for the scalable codes.
    fig5_large_27: dict[str, float] = field(
        default_factory=lambda: {
            "trapez": 25.6,
            "susan": 24.8,
            "mmult": 24.1,
            "fft": 18.8,
            "qsort": 13.6,
        }
    )
    #: Near-ideal low-kernel-count anchors visible in Figure 5.
    fig5_scalable_anchor: dict[int, float] = field(
        default_factory=lambda: {2: 2.0, 4: 4.0, 8: 7.9, 16: 15.7}
    )
    fig5_average_27: float = 21.0  # §1/§8 headline

    #: Figure 6 — TFluxSoft native, 6 kernels, best-size values printed.
    fig6_best_6: dict[str, float] = field(
        default_factory=lambda: {
            "trapez": 4.9,
            "susan": 4.9,
            "mmult": 4.5,
            "fft": 3.6,
            "qsort": 3.4,
        }
    )
    #: Figure 6's 2-kernel bars sit between ~1.6 and ~2.0.  Measured
    #: values are compared against this band with slack above 2.0:
    #: against the canonical unroll=1 sequential baseline (the paper's
    #: serial program, which re-streams MMULT's full B matrix per row),
    #: two kernels aggregate two L1s and can land mildly superlinear —
    #: a real cache-aggregation effect, not a modelling artefact.
    fig6_two_kernel_band: tuple[float, float] = (1.6, 2.0)

    #: Figure 7 — TFluxCell, 6 SPEs, printed values (no FFT on Cell).
    fig7_best_6: dict[str, float] = field(
        default_factory=lambda: {
            "trapez": 5.5,
            "mmult": 5.1,
            "susan": 5.0,
            "qsort": 2.1,
        }
    )
    fig7_qsort_band: tuple[float, float] = (1.3, 2.1)

    #: §1/§8: software platforms average 4.4x on 6 nodes.
    soft_cell_average_6: float = 4.4

    #: §4.1/§6.1.1: TSU processing time 1 -> 128 cycles costs < 1%.
    tsu_latency_max_impact: float = 0.01

    #: §6.2.2: unroll factors — Hard peaks by ~2-4, Soft needs > 16.
    hard_sufficient_unroll: int = 4
    soft_required_unroll: int = 16
    #: §6.3: Cell MMULT needs unroll 64.
    cell_mmult_unroll: int = 64


PAPER = PaperReference()
