"""Directory-width edge cases for the two-level (node, core) sharer
directory.

Three families, per the PR-6 contract:

* the two-level layout must produce **bit-identical** cycles and stats
  to the flat single-word mask wherever one word suffices (all ≤63-core
  configs — the old ceiling — plus the new 64-core boundary), exercised
  by forcing extra directory words on machines that do not need them;
* exact/fast cross-validation must hold *past* the old 63-core wall
  (64 and 128 cores) exactly as it does below it;
* the full 64 nodes x 64 cores machine must construct and run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.accesses import AccessSummary, RegionSpace
from repro.sim.cache import CacheConfig, CoherentMemorySystem, MemoryConfig
from repro.sim.capability import MAX_CORES
from repro.sim.fastcache import SHORT_SWEEP, FastMemorySystem
from tests.test_fastcache_differential import Shipped

L1 = CacheConfig(size=1024, line_size=64, assoc=2, read_latency=2, write_latency=0)
L2 = CacheConfig(size=8192, line_size=64, assoc=4, read_latency=20, write_latency=20)
MEM = MemoryConfig(
    dram_latency=100, dram_burst_latency=16, cache_to_cache_latency=40, upgrade_latency=8
)


def _space(nlines=64):
    space = RegionSpace()
    space.region("C", nlines * 64)
    return space


def _chunk_op(space, write, chunk, nlines=8):
    """*nlines* lines from the start of an 8-line chunk."""
    s = AccessSummary()
    kw = dict(offset=chunk * 8 * 64, count=8 * nlines, elem_size=8, stride=8)
    (s.write if write else s.read)(space.get("C"), **kw)
    return s


def _stats_tuple(model, core):
    s = model.stats[core]
    return (
        s.accesses, s.l1_hits, s.l2_hits, s.mem_misses,
        s.coherence_misses, s.upgrades, s.cycles,
    )


@settings(max_examples=25, deadline=None)
@given(
    ncores=st.integers(min_value=2, max_value=63),
    words=st.integers(min_value=2, max_value=4),
    pattern=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # active-core index
            st.booleans(),  # write?
            st.integers(min_value=0, max_value=7),  # chunk index
            # lines from the chunk's start: the scalar route up to
            # SHORT_SWEEP (32), the vector one past it
            st.sampled_from([1, 3, 8, 12, 40, 40, 64, 64]),
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_two_level_bit_identical_to_flat_below_old_ceiling(ncores, words, pattern):
    """Any ≤63-core config: forcing the multi-word directory paths must
    reproduce the flat single-word mask's cycles bit for bit — on short
    sweeps (``_sweep_lines``) and longer ones (``_sweep``) alike."""
    space = _space(8 * 7 + 64)
    flat = Shipped(ncores, L1, L2, MEM, space)
    wide = Shipped(ncores, L1, L2, MEM, space, directory_words=words)
    assert flat._nwords == 1 and wide._nwords == words
    cores = sorted({0, ncores // 2, ncores - 1})
    for ci, write, chunk, nlines in pattern:
        core = cores[ci % len(cores)]
        s = _chunk_op(space, write, chunk, nlines)
        assert flat.run_summary(core, s) == wide.run_summary(core, s)
    for c in cores:
        assert _stats_tuple(flat, c) == _stats_tuple(wide, c)
    # A first sweep past the cut always takes the vector route (only a
    # repeat of a range it swept can take the O(1) re-stream instead).
    if any(nlines > SHORT_SWEEP for *_, nlines in pattern):
        assert flat.routes["sweep"] and wide.routes["sweep"]


def test_boundary_64_cores_single_word():
    """64 cores fit ONE word (the old flat code stopped at 63): the
    boundary config must run, and must match a forced two-word layout."""
    space = _space()
    one = FastMemorySystem(64, L1, L2, MEM, space)
    two = FastMemorySystem(64, L1, L2, MEM, space, directory_words=2)
    assert one._nwords == 1 and two._nwords == 2
    script = [
        (0, True, 0), (31, False, 0), (63, False, 0), (63, True, 0),
        (0, False, 0), (31, True, 1), (0, False, 1), (63, False, 1),
    ]
    for core, write, chunk in script:
        s = _chunk_op(space, write, chunk)
        assert one.run_summary(core, s) == two.run_summary(core, s)
    for c in (0, 31, 63):
        assert _stats_tuple(one, c) == _stats_tuple(two, c)
    # The boundary bit itself: core 63's writes invalidated core 0's copy.
    assert one.stats[63].accesses > 0


@pytest.mark.parametrize("ncores", [8, 63, 64, 128])
def test_two_level_bit_identical_at_and_past_the_wall(ncores):
    """Flat vs two-level bit-identity at the acceptance core counts:
    below the old ceiling (8, 63), at the one-word boundary (64) and in
    genuinely multi-word territory (128 = natural 2 words vs forced 4)."""
    space = _space()
    natural = FastMemorySystem(ncores, L1, L2, MEM, space)
    forced = FastMemorySystem(
        ncores, L1, L2, MEM, space, directory_words=natural._nwords + 2
    )
    cores = sorted({0, 1, ncores // 2, ncores - 1})
    script = [
        (c, write, chunk)
        for chunk in range(4)
        for write in (True, False)
        for c in cores
    ]
    for core, write, chunk in script:
        s = _chunk_op(space, write, chunk)
        assert natural.run_summary(core, s) == forced.run_summary(core, s)
    for c in cores:
        assert _stats_tuple(natural, c) == _stats_tuple(forced, c), f"core {c}"


@pytest.mark.parametrize("ncores", [8, 63, 64, 128])
def test_exact_fast_crossvalidate_past_old_wall(ncores):
    """Exact vs fast protocol agreement at, below and beyond 63 cores.

    Coherence protocol events (cache-to-cache transfers, upgrades) must
    match exactly; the L2/DRAM hit split may diverge within the bounded
    tolerance the fast model's time-distance LRU is documented to have
    (see test_fastcache.test_cross_validation_chunked_traffic).
    """
    space = RegionSpace()
    region = space.region("S", 16 * 64)
    exact = CoherentMemorySystem(ncores, L1, L2, MEM, space)
    fast = FastMemorySystem(ncores, L1, L2, MEM, space)
    writer, readers = 0, sorted({1, ncores // 2, ncores - 1})
    w = AccessSummary().write(region)
    r = AccessSummary().read(region)
    for model in (exact, fast):
        model.run_summary(writer, w)
        for c in readers:
            model.run_summary(c, r)
        model.run_summary(readers[-1], w)
    for c in [writer] + readers:
        se, sf = exact.stats[c], fast.stats[c]
        assert se.accesses == sf.accesses
        assert se.coherence_misses == sf.coherence_misses
        assert se.upgrades == sf.upgrades
        assert se.l1_hits == sf.l1_hits
        assert se.l2_hits + se.mem_misses == sf.l2_hits + sf.mem_misses
        # At most one full sweep's worth of lines may land on the other
        # side of the L2/DRAM split (16 lines here).
        assert abs(se.mem_misses - sf.mem_misses) <= 16
    # First reader pays cache-to-cache for every Modified line.
    assert fast.stats[readers[0]].coherence_misses == 16


def test_full_scale_64x64_smoke():
    """The largest representable machine: 64 nodes x 64 cores."""
    space = RegionSpace()
    region = space.region("S", 16 * 64)
    fast = FastMemorySystem(MAX_CORES, L1, L2, MEM, space)
    assert fast._nwords == 64
    w = AccessSummary().write(region)
    r = AccessSummary().read(region)
    fast.run_summary(0, w)
    # Readers across distinct directory words: 0, 1, 63 (word 0), 64
    # (word 1), 4095 (word 63).
    for c in (1, 63, 64, 4095):
        fast.run_summary(c, r)
    # A write from the far end must see sharers in three other words and
    # invalidate them all.
    fast.run_summary(4095, w)
    assert fast.stats[1].coherence_misses == 16
    fast.run_summary(0, r)
    assert fast.stats[0].coherence_misses == 16  # 4095 owned them again
    for s in fast.stats[:2] + fast.stats[63:65] + fast.stats[4095:]:
        assert (
            s.l1_hits + s.l2_hits + s.mem_misses + s.coherence_misses == s.accesses
        )
