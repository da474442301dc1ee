"""Unit tests for the multiple-TSU-Group hardware adapter (§4.1 extension)."""

from collections import Counter as Multiset

import pytest

from repro.core import ProgramBuilder
from repro.obs import Tracer
from repro.runtime.simdriver import SimulatedRuntime
from repro.sim.engine import Engine
from repro.sim.machine import BAGLE_27
from repro.tsu.group import TSUGroup
from repro.tsu.multigroup import MultiGroupHardwareAdapter


def fanout_program(nchunks=16, cost=2000):
    b = ProgramBuilder("fan")
    b.env.alloc("parts", nchunks)
    t1 = b.thread(
        "work",
        body=lambda env, i: env.array("parts").__setitem__(i, i),
        contexts=nchunks,
        cost=lambda e, c: cost,
    )
    t2 = b.thread(
        "total",
        body=lambda env, _: env.set("total", float(env.array("parts").sum())),
    )
    b.depends(t1, t2, "all")
    return b.build()


def make_adapter(nkernels=8, n_groups=2):
    blocks = fanout_program().blocks()
    engine = Engine()
    tsu = TSUGroup(nkernels, blocks)
    return MultiGroupHardwareAdapter(engine, tsu, n_groups=n_groups)


def test_kernel_partition_contiguous():
    a = make_adapter(nkernels=8, n_groups=2)
    groups = [a.group_of_kernel(k) for k in range(8)]
    assert groups == [0, 0, 0, 0, 1, 1, 1, 1]


def test_kernel_partition_uneven():
    a = make_adapter(nkernels=7, n_groups=3)
    groups = [a.group_of_kernel(k) for k in range(7)]
    assert groups == sorted(groups)
    assert set(groups) == {0, 1, 2}


def test_one_device_per_group():
    a = make_adapter(n_groups=4, nkernels=8)
    assert len(a.mmis) == 4
    assert len(a.buses) == 4
    assert a.mmis[0] is not a.mmis[1]


def test_invalid_group_counts():
    with pytest.raises(ValueError):
        make_adapter(nkernels=4, n_groups=0)
    with pytest.raises(ValueError):
        make_adapter(nkernels=4, n_groups=5)


def run_with_groups(n_groups, nkernels=8, cost=2000, lat=4, tracer=None):
    prog = fanout_program(cost=cost)
    adapters = []

    def factory(engine, tsu):
        a = MultiGroupHardwareAdapter(
            engine, tsu, n_groups=n_groups, tsu_processing_cycles=lat
        )
        adapters.append(a)
        return a

    res = SimulatedRuntime(
        prog, BAGLE_27, nkernels=nkernels, adapter_factory=factory, tracer=tracer
    ).run()
    return res, adapters[0]


def test_functional_correctness_any_group_count():
    for g in (1, 2, 4, 8):
        res, _ = run_with_groups(g)
        assert res.env.get("total") == sum(range(16))


def test_single_group_matches_plain_hardware_adapter():
    """n_groups=1 must be bit-identical to HardwareTSUAdapter — the same
    contract test_dist_differential holds Dist(1 node) to against Soft."""
    from repro.tsu.hardware import HardwareTSUAdapter

    multi, _ = run_with_groups(1, tracer=Tracer())
    plain = SimulatedRuntime(
        fanout_program(),
        BAGLE_27,
        nkernels=8,
        adapter_factory=lambda e, t: HardwareTSUAdapter(e, t),
        tracer=Tracer(),
    ).run()
    assert multi.cycles == plain.cycles
    assert multi.region_cycles == plain.region_cycles
    counters = multi.counters.as_dict()
    # The one counter only the multigroup adapter publishes: one group,
    # nothing crosses.
    assert counters.pop("tsu.intergroup_transfers") == 0
    assert counters == plain.counters.as_dict()
    assert Multiset((s.kind, s.name) for s in multi.spans) == Multiset(
        (s.kind, s.name) for s in plain.spans
    )
    assert [(k.dthreads, k.fetches, k.waits) for k in multi.kernels] == [
        (k.dthreads, k.fetches, k.waits) for k in plain.kernels
    ]
    assert multi.env.get("total") == plain.env.get("total")


def test_intergroup_transfers_counted():
    """The reduction consumer sits in one group; producers in the other
    group must report cross-group updates."""
    _, adapter = run_with_groups(2)
    assert adapter.intergroup_transfers > 0


def test_contention_relief_under_high_latency():
    slow1, _ = run_with_groups(1, cost=200, lat=64)
    slow2, _ = run_with_groups(2, cost=200, lat=64)
    assert slow2.cycles < slow1.cycles
