"""Tests for bus, MMI, machine configs and main memory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine
from repro.sim.interconnect import CYCLES_PER_TRANSACTION, SystemBus
from repro.sim.machine import BAGLE_27, CELL_PS3, X86_9_SIM, XEON_8
from repro.sim.memory import MainMemory
from repro.sim.mmi import MemoryMappedInterface
from repro.sim.accesses import RegionSpace


# -- SystemBus ------------------------------------------------------------
def test_bus_serialises_transactions():
    eng = Engine()
    bus = SystemBus(eng)
    done = []

    def user(tag):
        yield from bus.transfer()
        done.append((eng.now, tag))

    eng.process(user("a"))
    eng.process(user("b"))
    eng.run()
    assert CYCLES_PER_TRANSACTION == 2
    assert done == [(2, "a"), (4, "b")]
    assert bus.transactions == 2
    assert bus.busy_cycles == 4


# -- MMI --------------------------------------------------------------------
def test_mmi_query_roundtrip_cost():
    eng = Engine()
    bus = SystemBus(eng)
    mmi = MemoryMappedInterface(eng, bus, tsu_processing_cycles=4, l1_access_cycles=2)

    def proc():
        value = yield from mmi.query(lambda: "reply")
        return (eng.now, value)

    p = eng.process(proc())
    eng.run()
    # bus (2) + access (2+4) + reply bus (2) = 10.
    assert p.done.value == (10, "reply")
    assert mmi.queries == 1


def test_mmi_command_is_posted():
    eng = Engine()
    bus = SystemBus(eng)
    mmi = MemoryMappedInterface(eng, bus)
    hits = []

    def proc():
        yield from mmi.command(lambda: hits.append(eng.now))

    eng.process(proc())
    eng.run()
    assert len(hits) == 1
    assert mmi.commands == 1


def test_mmi_port_contention():
    """Two simultaneous queries serialise at the single TSU port."""
    eng = Engine()
    bus = SystemBus(eng)
    mmi = MemoryMappedInterface(eng, bus, tsu_processing_cycles=50)
    times = []

    def proc():
        yield from mmi.query(lambda: None)
        times.append(eng.now)

    eng.process(proc())
    eng.process(proc())
    eng.run()
    assert times[1] - times[0] >= 50


def test_mmi_uncontended_ops_closed_form():
    """Alone in the device, a command's action runs at bus + l1 + tsu
    after three events (start, bus slot, processing); a query adds the
    reply transaction and one event."""
    for op, done_at, events in (("command", 8, 3), ("query", 10, 4)):
        eng = Engine()
        mmi = MemoryMappedInterface(eng, SystemBus(eng),
                                    tsu_processing_cycles=4, l1_access_cycles=2)
        acted = []

        def proc():
            yield from getattr(mmi, op)(lambda: acted.append(eng.now))
            return eng.now

        p = eng.process(proc())
        eng.run()
        assert (acted, p.done.value, eng.events_executed) == ([8], done_at, events)


def _mmi_command_oracle(arrivals, bus_cycles, access_cycles):
    """Action cycle of each command in closed form: served in (arrival,
    creation) order, each waits for the bus, then for the port."""
    acted = [None] * len(arrivals)
    bus = port = float("-inf")
    for i in sorted(range(len(arrivals)), key=lambda i: (arrivals[i], i)):
        bus = max(arrivals[i], bus + bus_cycles)
        port = max(bus + bus_cycles, port + access_cycles)
        acted[i] = port + access_cycles
    return acted


@settings(max_examples=200, deadline=None)
@given(
    arrivals=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=10),
    tsu_cycles=st.integers(min_value=0, max_value=8),
)
def test_mmi_commands_match_fifo_oracle(arrivals, tsu_cycles):
    """Commands issued at random cycles queue FIFO at the bus and then
    at the TSU port, exactly as two tandem single-server queues say."""
    eng = Engine()
    mmi = MemoryMappedInterface(eng, SystemBus(eng),
                                tsu_processing_cycles=tsu_cycles, l1_access_cycles=2)
    acted = [None] * len(arrivals)

    def issuer(i, at):
        yield at
        yield from mmi.command(lambda: acted.__setitem__(i, eng.now))

    for i, at in enumerate(arrivals):
        eng.process(issuer(i, at))
    eng.run()
    assert acted == _mmi_command_oracle(arrivals, CYCLES_PER_TRANSACTION, 2 + tsu_cycles)
    assert mmi.commands == len(arrivals)


# -- machine configs -------------------------------------------------------------
def test_machine_kernel_budgets():
    assert BAGLE_27.max_kernels == 27
    assert XEON_8.max_kernels == 7  # OS only; TSU core subtracted by platform
    assert X86_9_SIM.max_kernels == 8
    assert CELL_PS3.cell.n_spes == 6


def test_xeon_l2_pairing():
    groups = XEON_8.l2_groups()
    assert groups == [0, 0, 1, 1, 2, 2, 3, 3]


def test_bagle_private_l2s():
    assert BAGLE_27.l2_groups() == list(range(28))


def test_machine_memory_system_factories():
    space = RegionSpace()
    space.region("r", 4096)
    fast = BAGLE_27.memory_system(space)
    exact = BAGLE_27.memory_system(space, exact=True)
    from repro.sim.cache import CoherentMemorySystem
    from repro.sim.fastcache import FastMemorySystem

    assert isinstance(fast, FastMemorySystem)
    assert isinstance(exact, CoherentMemorySystem)


def test_with_cores_preserves_caches():
    smaller = BAGLE_27.with_cores(8)
    assert smaller.ncores == 8
    assert smaller.l1 == BAGLE_27.l1
    assert smaller.l2 == BAGLE_27.l2


def test_paper_cache_parameters():
    """§6.1.1 / §6.2.1 parameters encoded exactly."""
    assert BAGLE_27.l1.size == 32 * 1024
    assert BAGLE_27.l1.assoc == 4
    assert BAGLE_27.l1.read_latency == 2
    assert BAGLE_27.l1.write_latency == 0
    assert BAGLE_27.l2.size == 2 * 1024 * 1024
    assert BAGLE_27.l2.read_latency == 20
    assert XEON_8.l1.read_latency == 3
    assert XEON_8.l2.size == 4 * 1024 * 1024
    assert XEON_8.l2.read_latency == 14
    assert CELL_PS3.dram_bytes == 256 << 20
    assert CELL_PS3.cell.local_store_bytes == 256 * 1024


# -- MainMemory ------------------------------------------------------------------
def test_main_memory_allocation():
    mem = MainMemory(capacity=1000)
    a = mem.allocate(400)
    b = mem.allocate(500)
    assert (a, b) == (0, 400)
    with pytest.raises(MemoryError):
        mem.allocate(200)


def test_runtime_enforces_physical_memory():
    """A program whose shared arrays exceed the machine's DRAM must be
    rejected up front (the PS3 has only 256 MB)."""
    import dataclasses

    from repro.core import ProgramBuilder
    from repro.runtime.simdriver import SimulatedRuntime

    tiny = dataclasses.replace(BAGLE_27, dram_bytes=1 << 20)  # 1 MB machine
    b = ProgramBuilder("big")
    b.env.alloc("huge", (1 << 18,))  # 2 MB of float64
    b.thread("t", body=lambda env, _: None)
    with pytest.raises(MemoryError):
        SimulatedRuntime(b.build(), tiny, nkernels=1)
