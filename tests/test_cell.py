"""Tests for the Cell/BE substrate and the TFluxCell platform."""

import numpy as np
import pytest

from repro.apps import get_benchmark, problem_sizes
from repro.cell.commandbuffer import Command, CommandBuffer
from repro.cell.dma import DMAEngine
from repro.cell.localstore import CellLocalStoreError, LocalStore
from repro.cell.mailbox import MAILBOX_DEPTH, Mailbox
from repro.core import ProgramBuilder
from repro.platforms import TFluxCell, TFluxHard
from repro.sim.accesses import AccessSummary, RegionSpace
from repro.sim.engine import Engine


# -- LocalStore ------------------------------------------------------------
def test_localstore_budget():
    ls = LocalStore(capacity=256 * 1024, reserved=48 * 1024)
    assert ls.data_budget == 208 * 1024
    ls.require(100_000)
    assert ls.high_watermark == 100_000


def test_localstore_overflow_raises():
    ls = LocalStore()
    with pytest.raises(CellLocalStoreError, match="Local Store"):
        ls.require(300_000, what="huge DThread")


# -- DMA --------------------------------------------------------------------
def test_dma_transfer_cost_scales():
    dma = DMAEngine(setup_cycles=300, cycles_per_line=4, line_size=128)
    small = dma.transfer_cycles(128)
    big = dma.transfer_cycles(128 * 100)
    assert small == 304
    assert big == 300 + 400


def test_dma_streamed_transfer_pays_per_tile_setup():
    dma = DMAEngine(setup_cycles=300, cycles_per_line=4, line_size=128,
                    stream_tile_bytes=1024)
    streamed = dma.transfer_cycles(4096, streamed=True)
    assert streamed == 300 * 4 + 32 * 4


def test_dma_import_export_split():
    space = RegionSpace()
    r = space.region("r", 4096)
    dma = DMAEngine()
    s = AccessSummary().read(r, count=256).write(r, count=128)
    imp, exp = dma.import_cycles(s), dma.export_cycles(s)
    assert imp > exp > 0


def test_dma_working_set_streamed_vs_resident():
    space = RegionSpace()
    big = space.region("big", 1 << 20)
    dma = DMAEngine(stream_tile_bytes=16 * 1024)
    resident = AccessSummary().read(big)
    streamed = AccessSummary().read(big, resident=False)
    assert dma.working_set_bytes(resident) == 1 << 20
    assert dma.working_set_bytes(streamed) == 32 * 1024


# -- Mailbox --------------------------------------------------------------------
def test_mailbox_latency_and_fifo():
    eng = Engine()
    mbox = Mailbox(eng, latency=100)
    received = []

    def reader(eng, mbox):
        for _ in range(2):
            v = yield from mbox.receive()
            received.append((eng.now, v))

    eng.process(reader(eng, mbox))
    mbox.send("a")
    mbox.send("b")
    eng.run()
    assert received == [(100, "a"), (100, "b")]


def test_mailbox_overflow():
    eng = Engine()
    mbox = Mailbox(eng, latency=1)
    for i in range(MAILBOX_DEPTH + 1):
        mbox.send(i)
    with pytest.raises(OverflowError):
        eng.run()


# -- CommandBuffer ------------------------------------------------------------------
def test_command_buffer_capacity():
    cb = CommandBuffer(size_bytes=128)
    assert cb.capacity == 8
    for i in range(8):
        assert cb.try_write(Command("complete", 0, i))
    assert not cb.try_write(Command("complete", 0, 9))
    assert cb.stalls == 1
    assert len(cb.drain()) == 8
    assert len(cb) == 0


# -- platform end-to-end ----------------------------------------------------------
def parallel_sum_program(nchunks=12, chunk_cost=50_000):
    b = ProgramBuilder("psum")
    b.env.alloc("parts", nchunks)

    def work(env, i):
        env.array("parts")[i] = i + 1

    t1 = b.thread("work", body=work, contexts=nchunks, cost=lambda e, c: chunk_cost)
    t2 = b.thread(
        "total",
        body=lambda env, _: env.set("total", float(env.array("parts").sum())),
    )
    b.depends(t1, t2, "all")
    return b.build()


def test_cell_executes_program():
    plat = TFluxCell()
    res = plat.execute(parallel_sum_program(), nkernels=4)
    assert res.env.get("total") == 78.0
    assert res.cycles > 0


def test_cell_max_kernels_is_six():
    plat = TFluxCell()
    assert plat.max_kernels == 6
    with pytest.raises(ValueError):
        plat.execute(parallel_sum_program(), nkernels=7)


def test_cell_overhead_exceeds_hardware_tsu():
    cell = TFluxCell().execute(parallel_sum_program(), nkernels=4)
    hard = TFluxHard().execute(parallel_sum_program(), nkernels=4)
    assert cell.cycles > hard.cycles


def test_cell_parallel_speedup_on_coarse_threads():
    par = TFluxCell().execute(parallel_sum_program(12, 400_000), nkernels=6)
    seq = TFluxCell().sequential_baseline(parallel_sum_program(12, 400_000))
    assert seq.cycles / par.cycles > 4.0


def test_cell_ppe_stats_populated():
    plat = TFluxCell()
    prog = parallel_sum_program()
    runtime_adapters = []
    factory = plat.adapter_factory()

    def spy(engine, tsu):
        a = factory(engine, tsu)
        runtime_adapters.append(a)
        return a

    from repro.runtime.simdriver import SimulatedRuntime

    res = SimulatedRuntime(
        prog, plat.machine, nkernels=3, adapter_factory=spy, platform_name="tfluxcell"
    ).run()
    (a,) = runtime_adapters
    assert a.ppe_commands >= 13  # 13 completions + fetches
    assert a.ppe_busy_cycles > 0
    assert a.shared_buffer.exports >= 0
    assert res.env.get("total") == 78.0


def test_cell_local_store_rejects_oversized_thread():
    b = ProgramBuilder("big")
    big = b.env.alloc("big", 300_000 // 8)
    reg = b.env.region("big")
    b.thread(
        "hog",
        body=lambda env, _: None,
        accesses=lambda env, _: AccessSummary().read(reg),
    )
    with pytest.raises(CellLocalStoreError, match="Local Store"):
        TFluxCell().execute(b.build(), nkernels=2)


def test_cell_qsort_large_native_size_hits_local_store_wall():
    """§6.3: QSORT sizes beyond the Cell grid cannot run (LS capacity)."""
    bench = get_benchmark("qsort")
    big = problem_sizes("qsort", "N")["large"]  # 50K elements
    prog = bench.build(big, unroll=8)
    with pytest.raises(Exception) as err:
        TFluxCell().execute(prog, nkernels=4)
    assert "Local Store" in str(err.value) or "Local Store" in str(err.value.__cause__)


def test_cell_qsort_cell_sizes_run():
    bench = get_benchmark("qsort")
    size = problem_sizes("qsort", "C")["large"]  # 12K elements
    prog = bench.build(size, unroll=8)
    res = TFluxCell().execute(prog, nkernels=4)
    bench.verify(res.env, size)


@pytest.mark.parametrize("name", ["trapez", "mmult", "qsort", "susan"])
def test_cell_runs_figure7_benchmarks(name):
    """The four Figure-7 workloads execute correctly on TFluxCell."""
    bench = get_benchmark(name)
    size = problem_sizes(name, "C")["small"]
    prog = bench.build(size, unroll=32, max_threads=256)
    res = TFluxCell().execute(prog, nkernels=4)
    bench.verify(res.env, size)
