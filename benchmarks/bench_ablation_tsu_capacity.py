"""A6 — TSU capacity and DDM Block splitting.

§2: "To allow programs with arbitrarily large synchronization graphs,
without requiring equally large TSU, DDM programs can be split into DDM
Blocks" whose size "is defined by the size of the TSU".  This ablation
sweeps the TSU capacity: a smaller TSU forces more blocks, each paying an
Inlet/Outlet hand-off and an inter-block barrier.  The paper's design
bet — that modest TSU sizes cost little — is checked on a 2048-thread
TRAPEZ.
"""

import pytest

from benchmarks.conftest import report
from repro.apps import get_benchmark, problem_sizes
from repro.exec import JobSpec, run_jobs
from repro.platforms import TFluxHard

CAPACITIES = (64, 256, 1024, None)  # None = unbounded (single block)


def _spec(capacity) -> JobSpec:
    return JobSpec(
        platform=TFluxHard(),
        bench="trapez",
        size=problem_sizes("trapez", "S")["small"],
        nkernels=16,
        unroll=4,
        max_threads=2048,
        verify=True,
        mode="execute",
        tsu_capacity=capacity,
    )


def _block_count(capacity) -> int:
    # Program construction is cheap (no simulation): count blocks locally
    # on a throwaway build rather than shipping the program across the
    # exec boundary.
    bench = get_benchmark("trapez")
    size = problem_sizes("trapez", "S")["small"]
    return len(bench.build(size, unroll=4, max_threads=2048).blocks(capacity))


@pytest.fixture(scope="module")
def sweep():
    outcomes = run_jobs([_spec(cap) for cap in CAPACITIES])
    return {
        cap: (outcome.region_cycles, _block_count(cap))
        for cap, outcome in zip(CAPACITIES, outcomes)
    }


def test_capacity_table(sweep):
    base = sweep[None][0]
    lines = [
        "A6 — TSU capacity vs block-splitting cost (TRAPEZ small, 2049 "
        "instances, 16 kernels)",
        f"{'capacity':>9} {'blocks':>7} {'region cycles':>14} {'overhead':>9}",
    ]
    for cap, (cycles, nblocks) in sweep.items():
        label = "inf" if cap is None else str(cap)
        lines.append(
            f"{label:>9} {nblocks:>7} {cycles:>14,} "
            f"{(cycles - base) / base:>8.2%}"
        )
    report("\n".join(lines))


def test_block_counts_match_capacity(sweep):
    assert sweep[None][1] == 1
    assert sweep[1024][1] == 3  # ceil(2049/1024)
    assert sweep[64][1] == 33


def test_smaller_tsu_never_faster(sweep):
    ordered = [sweep[64][0], sweep[256][0], sweep[1024][0], sweep[None][0]]
    for small, big in zip(ordered, ordered[1:]):
        assert small >= big * 0.999


def test_modest_capacity_costs_little(sweep):
    """A 1024-entry TSU (3 blocks) costs only a few percent over an
    unbounded one — the paper's blocks design works."""
    base = sweep[None][0]
    assert (sweep[1024][0] - base) / base < 0.05


def test_tiny_capacity_cost_is_bounded(sweep):
    """Even a 64-entry TSU (33 blocks) keeps overhead moderate."""
    base = sweep[None][0]
    assert (sweep[64][0] - base) / base < 0.60
