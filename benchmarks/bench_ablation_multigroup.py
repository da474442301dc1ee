"""A5 — multiple TSU Groups (the §4.1 extension, built out).

"For systems with very large number of CPUs it may be beneficial to have
multiple TSU Groups."  We measure the anticipated trade-off on TFluxHard
with deliberately *fine-grained* DThreads (where the single command port
is the bottleneck): partitioning the 27 kernels over 1/2/4 TSU Group
devices relieves port contention at the price of inter-group
Ready-Count transfers.
"""

import pytest

from benchmarks.conftest import report
from repro.apps import get_benchmark, problem_sizes
from repro.exec import JobSpec, run_jobs
from repro.platforms import TFluxHard
from repro.runtime.simdriver import SimulatedRuntime
from repro.sim.machine import BAGLE_27
from repro.tsu.multigroup import MultiGroupHardwareAdapter

GROUPS = (1, 2, 4, 27)  # 27 = one TSU per kernel (the D2NOW-style design §3.3 argues against)
#: High TSU processing time + fine threads = visible port contention.
TSU_CYCLES = 64


class MultiGroupHard(TFluxHard):
    """TFluxHard with the TSU partitioned over *n_groups* Group devices.

    Module-level (not a closure) so JobSpecs carrying it stay picklable;
    ``n_groups`` lands in the platform state and hence the cache digest.
    """

    def __init__(self, n_groups: int) -> None:
        super().__init__(tsu_processing_cycles=TSU_CYCLES)
        self.n_groups = n_groups
        self.name = f"tfluxhard-{n_groups}g"

    def adapter_factory(self):
        n, lat = self.n_groups, self.tsu_processing_cycles
        return lambda engine, tsu: MultiGroupHardwareAdapter(
            engine, tsu, n_groups=n, tsu_processing_cycles=lat
        )


def _spec(n_groups: int) -> JobSpec:
    return JobSpec(
        platform=MultiGroupHard(n_groups),
        bench="trapez",
        size=problem_sizes("trapez", "S")["small"],
        nkernels=27,
        unroll=1,
        max_threads=8192,
        mode="execute",
    )


@pytest.fixture(scope="module")
def sweep():
    """groups -> (region cycles, inter-group transfers)."""
    outcomes = run_jobs([_spec(g) for g in GROUPS])
    return {
        g: (out.region_cycles, out.result.counters["tsu.intergroup_transfers"])
        for g, out in zip(GROUPS, outcomes)
    }


def test_multigroup_table(sweep):
    base = sweep[1][0]
    lines = [
        "A5 — TSU Group count vs fine-grained-thread performance "
        f"(TRAPEZ small, unroll 1, TSU latency {TSU_CYCLES})",
        f"{'groups':>6} {'region cycles':>14} {'vs 1 group':>11} "
        f"{'inter-group transfers':>22}",
    ]
    for g, (cycles, transfers) in sweep.items():
        lines.append(
            f"{g:>6} {cycles:>14,} {base / cycles:>10.2f}x {transfers:>22,}"
        )
    report("\n".join(lines))


def test_more_groups_relieve_contention(sweep):
    """With a contended port, 2 groups must beat 1."""
    assert sweep[2][0] < sweep[1][0] * 0.98


def test_single_group_has_no_intergroup_traffic(sweep):
    assert sweep[1][1] == 0


def test_intergroup_traffic_grows_with_groups(sweep):
    assert sweep[27][1] >= sweep[4][1] >= sweep[2][1] >= 0


def test_per_cpu_tsus_maximise_tsu_to_tsu_traffic(sweep):
    """§3.3: with a distinct TSU per CPU (the D2NOW arrangement), almost
    every Ready-Count update crosses TSUs — the communication the TSU
    Group absorbs internally."""
    per_cpu_traffic = sweep[27][1]
    grouped_traffic = sweep[2][1]
    assert per_cpu_traffic > 1.5 * grouped_traffic


def test_results_identical_across_group_counts():
    """Scheduling semantics are unchanged: same numerical output."""
    bench = get_benchmark("trapez")
    size = problem_sizes("trapez", "S")["small"]
    values = []
    for g in (1, 4):
        prog = bench.build(size, unroll=4, max_threads=1024)
        res = SimulatedRuntime(
            prog, BAGLE_27, nkernels=8,
            adapter_factory=lambda e, t, g=g: MultiGroupHardwareAdapter(e, t, n_groups=g),
        ).run()
        bench.verify(res.env, size)
        values.append(res.env.get("integral"))
    assert values[0] == values[1]


def test_bad_group_counts_rejected():
    from repro.core import ProgramBuilder
    from repro.sim.engine import Engine
    from repro.tsu.group import TSUGroup

    b = ProgramBuilder("tiny")
    b.thread("t", body=lambda env, _: None)
    blocks = b.build().blocks()
    engine = Engine()
    tsu = TSUGroup(2, blocks)
    with pytest.raises(ValueError):
        MultiGroupHardwareAdapter(engine, tsu, n_groups=0)
    with pytest.raises(ValueError):
        MultiGroupHardwareAdapter(engine, tsu, n_groups=3)
