"""A4 — §6.3 ablation: the Cell Local-Store capacity wall for QSORT.

"The reason for not using larger problem sizes is that they would not fit
in each SPE Local Store.  To overcome this limitation we would have to
change the algorithm in order to perform the execution in stages."

Reproduced as a sweep of QSORT input size against the Local-Store data
budget: the Cell-column sizes of Table 1 run; the simulated-column sizes
do not (the resident merge inputs overflow), which is exactly why the
paper's Table 1 gives QSORT a separate, smaller Cell grid.
"""

import pytest

from benchmarks.conftest import report
from repro.exec import JobOutcome, JobSpec, run_jobs
from repro.platforms import TFluxCell


def _spec(n_elements: int) -> JobSpec:
    from repro.apps.common import ProblemSize

    return JobSpec(
        platform=TFluxCell(),
        bench="qsort",
        size=ProblemSize("qsort", "C", f"n{n_elements}", {"n": n_elements}),
        nkernels=4,
        unroll=16,
        max_threads=512,
        verify=True,
        mode="execute",
        capture_errors=True,
    )


def _interpret(outcome: JobOutcome) -> tuple[bool, str]:
    """(ran, note) for one QSORT attempt; the failure *is* the datum."""
    if outcome.error is None:
        return True, f"{outcome.region_cycles:,} cycles"
    qualname, message = outcome.error
    assert qualname.endswith("CellLocalStoreError"), outcome.error
    return False, message.split(";")[0]


SIZES = (3_000, 6_000, 12_000, 20_000, 26_000, 50_000)


@pytest.fixture(scope="module")
def outcomes():
    results = run_jobs([_spec(n) for n in SIZES])
    return {n: _interpret(out) for n, out in zip(SIZES, results)}


def test_localstore_wall_table(outcomes):
    lines = [
        "A4 — QSORT on TFluxCell vs Local-Store capacity (merge inputs resident)",
        f"{'elements':>9} {'runs?':>6}  note",
    ]
    for n, (ran, note) in outcomes.items():
        lines.append(f"{n:>9} {'yes' if ran else 'NO':>6}  {note}")
    report("\n".join(lines))


def test_cell_table1_sizes_all_run(outcomes):
    for n in (3_000, 6_000, 12_000):
        ran, note = outcomes[n]
        assert ran, f"Table-1 Cell size {n} failed: {note}"


def test_simulated_sizes_hit_the_wall(outcomes):
    """The S/N 50K input cannot run — the constraint that forced the
    paper's separate Cell size column."""
    ran, note = outcomes[50_000]
    assert not ran
    assert "Local Store" in note


def test_wall_is_a_threshold(outcomes):
    """Outcomes are monotone: once an input overflows, larger ones do."""
    seen_failure = False
    for n in SIZES:
        ran, _ = outcomes[n]
        if not ran:
            seen_failure = True
        elif seen_failure:
            pytest.fail(f"size {n} ran after a smaller size failed")
