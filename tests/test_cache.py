"""Unit and property tests for the exact MESI cache-hierarchy model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.accesses import AccessSummary, RegionSpace
from repro.sim.cache import (
    CacheConfig,
    CacheLevel,
    CoherentMemorySystem,
    MemoryConfig,
    EXCLUSIVE,
    MODIFIED,
    SHARED,
)

L1 = CacheConfig(size=1024, line_size=64, assoc=2, read_latency=2, write_latency=0)
L2 = CacheConfig(size=8192, line_size=64, assoc=4, read_latency=20, write_latency=20)
MEM = MemoryConfig(
    dram_latency=100, dram_burst_latency=16, cache_to_cache_latency=40, upgrade_latency=8
)


def make_system(ncores=2, region_bytes=65536, l2_groups=None):
    space = RegionSpace()
    space.region("R", region_bytes)
    sys_ = CoherentMemorySystem(ncores, L1, L2, MEM, space, l2_groups=l2_groups)
    return sys_


# -- CacheLevel ----------------------------------------------------------
def test_cache_geometry():
    assert L1.num_sets == 8
    assert L1.num_lines == 16


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheConfig(size=1000, line_size=64, assoc=2, read_latency=1, write_latency=1)


def test_cachelevel_insert_lookup():
    c = CacheLevel(L1)
    assert c.lookup(0) is None
    c.insert(0, EXCLUSIVE)
    assert c.lookup(0) == EXCLUSIVE


def test_cachelevel_lru_eviction():
    c = CacheLevel(L1)
    # Two lines map to the same set when they differ by num_sets*line.
    set_span = L1.num_sets * L1.line_size
    a, b, d = 0, set_span, 2 * set_span
    c.insert(a, SHARED)
    c.insert(b, SHARED)
    c.lookup(a)  # refresh a: b becomes LRU
    victim = c.insert(d, SHARED)
    assert victim == (b, SHARED)
    assert a in c and d in c and b not in c


def test_cachelevel_invalidate():
    c = CacheLevel(L1)
    c.insert(64, MODIFIED)
    assert c.invalidate(64) == MODIFIED
    assert c.invalidate(64) is None


# -- single-core behaviour -------------------------------------------------
def test_cold_miss_then_hit():
    sys_ = make_system()
    lat1 = sys_.access(0, "R", 0, is_write=False)
    assert lat1 == L1.read_latency + L2.read_latency + MEM.dram_latency
    lat2 = sys_.access(0, "R", 8, is_write=False)  # same line
    assert lat2 == L1.read_latency
    st = sys_.stats[0]
    assert st.mem_misses == 1 and st.l1_hits == 1


def test_l2_hit_after_l1_eviction():
    sys_ = make_system()
    # Touch enough lines in one set to evict from L1 but stay in L2.
    set_span = L1.num_sets * L1.line_size
    for i in range(3):
        sys_.access(0, "R", i * set_span, is_write=False)
    # Line 0 was evicted from L1 (assoc 2) but lives in L2.
    lat = sys_.access(0, "R", 0, is_write=False)
    assert lat == L1.read_latency + L2.read_latency
    assert sys_.stats[0].l2_hits == 1


def test_write_allocates_modified():
    sys_ = make_system()
    sys_.access(0, "R", 0, is_write=True)
    assert sys_.l1s[0].lookup(sys_._line_of("R", 0)) == MODIFIED


def test_read_then_write_exclusive_silent_upgrade():
    sys_ = make_system()
    sys_.access(0, "R", 0, is_write=False)
    line = sys_._line_of("R", 0)
    assert sys_.l1s[0].lookup(line) == EXCLUSIVE
    lat = sys_.access(0, "R", 0, is_write=True)
    assert lat == L1.write_latency  # E->M needs no bus transaction
    assert sys_.l1s[0].lookup(line) == MODIFIED
    assert sys_.stats[0].upgrades == 0


# -- coherence ---------------------------------------------------------------
def test_read_shared_by_two_cores():
    sys_ = make_system()
    sys_.access(0, "R", 0, is_write=False)
    sys_.access(1, "R", 0, is_write=False)
    line = sys_._line_of("R", 0)
    assert sys_.l1s[1].lookup(line) == SHARED
    sys_.check_invariants()


def test_shared_write_triggers_upgrade_and_invalidation():
    sys_ = make_system()
    sys_.access(0, "R", 0, is_write=False)
    sys_.access(1, "R", 0, is_write=False)
    lat = sys_.access(0, "R", 0, is_write=True)
    assert lat == L1.write_latency + MEM.upgrade_latency
    line = sys_._line_of("R", 0)
    assert sys_.l1s[0].lookup(line) == MODIFIED
    assert sys_.l1s[1].lookup(line) is None
    assert sys_.stats[0].upgrades == 1
    sys_.check_invariants()


def test_remote_modified_read_is_coherence_miss():
    sys_ = make_system()
    sys_.access(0, "R", 0, is_write=True)  # core0 owns M
    lat = sys_.access(1, "R", 0, is_write=False)
    assert lat == MEM.cache_to_cache_latency + L1.read_latency
    assert sys_.stats[1].coherence_misses == 1
    line = sys_._line_of("R", 0)
    assert sys_.l1s[0].lookup(line) == SHARED
    assert sys_.l1s[1].lookup(line) == SHARED
    sys_.check_invariants()


def test_remote_modified_write_steals_ownership():
    sys_ = make_system()
    sys_.access(0, "R", 0, is_write=True)
    sys_.access(1, "R", 0, is_write=True)
    line = sys_._line_of("R", 0)
    assert sys_.l1s[1].lookup(line) == MODIFIED
    assert sys_.l1s[0].lookup(line) is None
    assert sys_.stats[1].coherence_misses == 1
    sys_.check_invariants()


def test_producer_consumer_transfer_counts():
    """A written range read by another core costs one coherence miss/line."""
    sys_ = make_system()
    space_lines = 32
    for i in range(space_lines):
        sys_.access(0, "R", i * 64, is_write=True)
    for i in range(space_lines):
        sys_.access(1, "R", i * 64, is_write=False)
    assert sys_.stats[1].coherence_misses == space_lines


def test_shared_l2_group_hit():
    """Cores sharing an L2 see each other's fills (Xeon pair topology)."""
    sys_ = make_system(ncores=2, l2_groups=[0, 0])
    sys_.access(0, "R", 0, is_write=False)
    # Core 1 misses L1 but hits the *shared* L2.
    lat = sys_.access(1, "R", 0, is_write=False)
    assert lat == L1.read_latency + L2.read_latency
    assert sys_.stats[1].l2_hits == 1


def test_run_summary_charges_all_ops():
    space = RegionSpace()
    a = space.region("A", 4096)
    sys_ = CoherentMemorySystem(1, L1, L2, MEM, space)
    s = AccessSummary().read(a).read(a)  # second sweep: 4096B = 64 lines > L1
    cycles = sys_.run_summary(0, s)
    st = sys_.stats[0]
    assert st.accesses == 128
    assert cycles == st.cycles
    assert st.mem_misses == 64  # first sweep all cold


def test_small_footprint_rereads_hit():
    space = RegionSpace()
    a = space.region("A", 512)  # 8 lines, fits L1 (16 lines)
    sys_ = CoherentMemorySystem(1, L1, L2, MEM, space)
    s = AccessSummary().read(a, reps=4)
    sys_.run_summary(0, s)
    st = sys_.stats[0]
    assert st.mem_misses == 8
    assert st.l1_hits == 24


def test_region_layout_no_overlap():
    space = RegionSpace()
    a = space.region("A", 100)
    b = space.region("B", 100)
    sys_ = CoherentMemorySystem(1, L1, L2, MEM, space)
    # Region B starts at a line boundary beyond A.
    assert sys_._bases["B"] >= a.size
    assert sys_._bases["B"] % 64 == 0


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # core
            st.integers(min_value=0, max_value=255),  # line index
            st.booleans(),  # write?
        ),
        min_size=1,
        max_size=200,
    )
)
def test_mesi_invariants_random_traffic(ops):
    """Single-writer/multiple-reader holds under arbitrary access interleavings."""
    sys_ = make_system(ncores=4, region_bytes=256 * 64)
    for core, line, write in ops:
        sys_.access(core, "R", line * 64, is_write=write)
    sys_.check_invariants()


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=63),
            st.booleans(),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_stats_conservation(ops):
    """Every access is classified exactly once."""
    sys_ = make_system(ncores=2, region_bytes=64 * 64)
    for core, line, write in ops:
        sys_.access(core, "R", line * 64, is_write=write)
    for st_ in sys_.stats:
        assert (
            st_.l1_hits + st_.l2_hits + st_.mem_misses + st_.coherence_misses
            == st_.accesses
        )
