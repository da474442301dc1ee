"""Tests for the simulated runtime driver and the protocol adapters."""

import numpy as np
import pytest

from repro.core import ProgramBuilder
from repro.platforms import TFluxHard, TFluxSoft
from repro.runtime.simdriver import SimulatedRuntime
from repro.sim.machine import BAGLE_27, XEON_8
from repro.tsu.hardware import HardwareTSUAdapter
from repro.tsu.policy import round_robin_placement
from repro.tsu.software import SoftTSUCosts, SoftwareTSUAdapter


def parallel_sum_program(nchunks=8, chunk_cost=1000):
    """nchunks independent DThreads + a reduction."""
    b = ProgramBuilder("psum")
    b.env.alloc("parts", nchunks)

    def work(env, i):
        env.array("parts")[i] = i + 1

    def total(env, _):
        env.set("total", float(env.array("parts").sum()))

    t1 = b.thread("work", body=work, contexts=nchunks, cost=lambda e, c: chunk_cost)
    t2 = b.thread("total", body=total, cost=lambda e, c: 10)
    b.depends(t1, t2, "all")
    return b.build()


def pipeline_program(depth=5, cost=100):
    """A pure chain: no parallelism available."""
    b = ProgramBuilder("chain")
    b.env.set("acc", 0)
    prev = None
    for d in range(depth):
        t = b.thread(
            f"stage{d}",
            body=lambda env, _, d=d: env.set("acc", env.get("acc") + 1),
            cost=lambda e, c: cost,
        )
        if prev is not None:
            b.depends(prev, t)
        prev = t
    return b.build()


# -- adapter lifecycle contract -----------------------------------------------------
def test_adapter_lifecycle_hooks_called_once_in_order_around_region():
    """The driver calls ProtocolAdapter's three hooks unconditionally:
    attach_memory at construction, start when the dataflow region opens,
    shutdown when every Kernel has exited — never probing for them."""
    from repro.tsu.base import ProtocolAdapter

    class Recording(ProtocolAdapter):
        def __init__(self, engine, tsu):
            super().__init__(engine, tsu)
            self.log = []

        def attach_memory(self, memsys, line_size, regions):
            self.log.append(("attach_memory", memsys, line_size, regions))

        def start(self):
            self.log.append(("start", self.engine.now))

        def fetch(self, kernel):
            self.log.append(("fetch",))
            return (yield from super().fetch(kernel))

        def shutdown(self):
            self.log.append(("shutdown", self.engine.now))

    b = ProgramBuilder("sections")
    b.env.alloc("parts", 4)
    b.prologue("init", lambda env: env.set("x", 1), cost=lambda env: 500)
    b.thread(
        "work",
        body=lambda env, i: env.array("parts").__setitem__(i, i),
        contexts=4,
        cost=lambda e, c: 1000,
    )
    b.epilogue("fini", lambda env: env.set("y", 2), cost=lambda env: 300)
    prog = b.build()
    adapters = []

    def factory(engine, tsu):
        adapters.append(Recording(engine, tsu))
        return adapters[0]

    runtime = SimulatedRuntime(prog, BAGLE_27, nkernels=2, adapter_factory=factory)
    (adapter,) = adapters
    assert adapter.log == [
        ("attach_memory", runtime.memsys, BAGLE_27.l1.line_size, prog.env.regions)
    ]
    res = runtime.run()
    names = [entry[0] for entry in adapter.log]
    assert names[:2] == ["attach_memory", "start"] and names[-1] == "shutdown"
    assert set(names[2:-1]) == {"fetch"}
    # start/shutdown bracket exactly the measured region: after the
    # prologue, before the epilogue.
    (_, started), (_, stopped) = adapter.log[1], adapter.log[-1]
    assert started == 500 and stopped - started == res.region_cycles
    assert res.cycles == stopped + 300
    assert (res.nnodes, res.topology) == (1, "")


# -- zero-overhead driver behaviour -------------------------------------------------
def test_functional_result_correct():
    prog = parallel_sum_program(8)
    res = SimulatedRuntime(prog, BAGLE_27, nkernels=4).run()
    assert res.env.get("total") == 36.0
    assert res.total_dthreads == 9


def test_single_kernel_equals_work_sum():
    prog = parallel_sum_program(8, chunk_cost=1000)
    res = SimulatedRuntime(prog, BAGLE_27, nkernels=1).run()
    # 8*1000 + 10 + memory costs for parts array accesses.
    assert res.cycles >= 8010
    assert res.cycles < 8010 + 5000


def test_parallel_speedup_with_zero_overhead():
    prog1 = parallel_sum_program(8, chunk_cost=10_000)
    seq = SimulatedRuntime(prog1, BAGLE_27, nkernels=1).run()
    prog8 = parallel_sum_program(8, chunk_cost=10_000)
    par = SimulatedRuntime(prog8, BAGLE_27, nkernels=8).run()
    speedup = seq.cycles / par.cycles
    assert speedup > 6.5  # near-linear for embarrassing parallelism


def test_chain_has_no_speedup():
    seq = SimulatedRuntime(pipeline_program(), BAGLE_27, nkernels=1).run()
    par = SimulatedRuntime(pipeline_program(), BAGLE_27, nkernels=8).run()
    assert par.cycles >= seq.cycles * 0.95


def test_runtime_single_use():
    rt = SimulatedRuntime(parallel_sum_program(), BAGLE_27, nkernels=2)
    rt.run()
    with pytest.raises(RuntimeError):
        rt.run()


def test_too_many_kernels_rejected():
    with pytest.raises(ValueError):
        SimulatedRuntime(parallel_sum_program(), XEON_8, nkernels=9)


def test_kernel_stats_accounted():
    prog = parallel_sum_program(8, chunk_cost=500)
    res = SimulatedRuntime(prog, BAGLE_27, nkernels=4).run()
    assert sum(k.dthreads for k in res.kernels) == 9
    busy = sum(k.core.compute_cycles for k in res.kernels)
    assert busy == 8 * 500 + 10


def test_multi_block_execution():
    prog = parallel_sum_program(8, chunk_cost=100)
    res = SimulatedRuntime(prog, BAGLE_27, nkernels=2, tsu_capacity=3).run()
    assert res.env.get("total") == 36.0


def test_round_robin_placement_also_correct():
    prog = parallel_sum_program(8)
    res = SimulatedRuntime(
        prog, BAGLE_27, nkernels=3, placement=round_robin_placement
    ).run()
    assert res.env.get("total") == 36.0


def test_prologue_epilogue_timed():
    b = ProgramBuilder("pe")
    b.prologue("init", body=lambda env: env.set("x", 1), cost=lambda env: 5000)
    b.thread("t", body=lambda env, _: env.set("y", env.get("x") + 1), cost=lambda e, c: 100)
    b.epilogue("fini", body=lambda env: env.set("z", env.get("y") + 1), cost=lambda env: 3000)
    res = SimulatedRuntime(b.build(), BAGLE_27, nkernels=2).run()
    assert res.env.get("z") == 3
    assert res.cycles >= 8100


def test_exact_memory_mode_runs():
    from repro.sim.accesses import AccessSummary

    b = ProgramBuilder("pmem")
    b.env.alloc("parts", 4)
    reg = b.env.region("parts")

    def work(env, i):
        env.array("parts")[i] = i + 1

    t1 = b.thread(
        "work",
        body=work,
        contexts=4,
        cost=lambda e, c: 100,
        accesses=lambda e, i: AccessSummary().write(reg, offset=i * 8, count=1),
    )
    t2 = b.thread(
        "total",
        body=lambda env, _: env.set("total", float(env.array("parts").sum())),
        accesses=lambda e, _: AccessSummary().read(reg),
    )
    b.depends(t1, t2, "all")
    res = SimulatedRuntime(b.build(), BAGLE_27, nkernels=2, exact_memory=True).run()
    assert res.env.get("total") == 10.0
    assert res.memory.accesses > 0


# -- sequential baseline ---------------------------------------------------------
def test_sequential_baseline_no_tsu_overhead():
    prog = parallel_sum_program(8, chunk_cost=1000)
    res = TFluxHard().sequential_baseline(prog)
    assert res.env.get("total") == 36.0
    assert res.nkernels == 1
    # compute cycles + memory; strictly no TSU cost included.
    assert res.cycles >= 8010


def test_sequential_baseline_leq_1kernel_hardware_run():
    seq = TFluxHard().sequential_baseline(parallel_sum_program(8, 1000))
    hard = SimulatedRuntime(
        parallel_sum_program(8, 1000),
        BAGLE_27,
        nkernels=1,
        adapter_factory=lambda e, t: HardwareTSUAdapter(e, t),
        platform_name="tfluxhard",
    ).run()
    assert seq.cycles <= hard.cycles  # TFlux overheads are real


# -- hardware adapter -----------------------------------------------------------
def test_hardware_adapter_correct_and_overheads_small():
    prog = parallel_sum_program(16, chunk_cost=20_000)
    res = SimulatedRuntime(
        prog,
        BAGLE_27,
        nkernels=8,
        adapter_factory=lambda e, t: HardwareTSUAdapter(e, t),
    ).run()
    assert res.env.get("total") == 136.0
    seq = TFluxHard().sequential_baseline(parallel_sum_program(16, 20_000))
    assert seq.cycles / res.cycles > 6.0


def test_hardware_tsu_latency_sweep_monotone():
    """Raising TSU processing time cannot speed execution up."""
    cycles = []
    for lat in (1, 4, 128):
        prog = parallel_sum_program(16, chunk_cost=5_000)
        res = SimulatedRuntime(
            prog,
            BAGLE_27,
            nkernels=8,
            adapter_factory=lambda e, t, lat=lat: HardwareTSUAdapter(
                e, t, tsu_processing_cycles=lat
            ),
        ).run()
        cycles.append(res.cycles)
    assert cycles[0] <= cycles[1] <= cycles[2]


def test_hardware_tsu_latency_small_impact_on_coarse_threads():
    """The paper's §4.1 claim: 1 -> 128 cycles costs <1% when DThreads are
    coarse enough."""
    results = {}
    for lat in (1, 128):
        prog = parallel_sum_program(32, chunk_cost=600_000)
        res = SimulatedRuntime(
            prog,
            BAGLE_27,
            nkernels=8,
            adapter_factory=lambda e, t, lat=lat: HardwareTSUAdapter(
                e, t, tsu_processing_cycles=lat
            ),
        ).run()
        results[lat] = res.cycles
    assert (results[128] - results[1]) / results[1] < 0.01


# -- software adapter ---------------------------------------------------------------
def test_software_adapter_correct():
    prog = parallel_sum_program(16, chunk_cost=50_000)
    res = SimulatedRuntime(
        prog,
        XEON_8,
        nkernels=6,
        adapter_factory=lambda e, t: SoftwareTSUAdapter(e, t, SoftTSUCosts()),
        platform_name="tfluxsoft",
    ).run()
    assert res.env.get("total") == 136.0


def test_software_overhead_exceeds_hardware():
    """Per-DThread cost is higher on TFluxSoft (paper §6.2.2)."""

    def run_with(factory, machine, nk):
        prog = parallel_sum_program(32, chunk_cost=2_000)
        return SimulatedRuntime(
            prog, machine, nkernels=nk, adapter_factory=factory
        ).run().cycles

    hard = run_with(lambda e, t: HardwareTSUAdapter(e, t), BAGLE_27, 4)
    soft = run_with(lambda e, t: SoftwareTSUAdapter(e, t, SoftTSUCosts()), XEON_8, 4)
    assert soft > hard


def test_software_emulator_stats_populated():
    prog = parallel_sum_program(8, chunk_cost=10_000)
    adapters = []

    def factory(e, t):
        a = SoftwareTSUAdapter(e, t, SoftTSUCosts())
        adapters.append(a)
        return a

    SimulatedRuntime(prog, XEON_8, nkernels=4, adapter_factory=factory).run()
    (a,) = adapters
    assert a.emulator_items == 9
    assert a.emulator_busy_cycles > 0
    assert a.tub_pushes == 9


def test_software_coarse_threads_amortise_overhead():
    """Bigger DThreads -> better TFluxSoft efficiency (unrolling claim)."""

    def eff(chunk_cost, nchunks):
        prog = parallel_sum_program(nchunks, chunk_cost=chunk_cost)
        par = SimulatedRuntime(
            prog,
            XEON_8,
            nkernels=4,
            adapter_factory=lambda e, t: SoftwareTSUAdapter(e, t, SoftTSUCosts()),
        ).run()
        seq = TFluxSoft().sequential_baseline(
            parallel_sum_program(nchunks, chunk_cost=chunk_cost)
        )
        return seq.cycles / par.cycles

    fine = eff(chunk_cost=1_000, nchunks=64)
    coarse = eff(chunk_cost=16_000, nchunks=4)
    assert coarse > fine
