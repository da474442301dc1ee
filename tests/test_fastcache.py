"""Tests for the vectorised memory model, including cross-validation
against the exact MESI model on the workload-style access patterns."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps import get_benchmark, problem_sizes
from repro.runtime.simdriver import SimulatedRuntime
from repro.sim.accesses import AccessSummary, RegionSpace
from repro.sim.cache import CacheConfig, CoherentMemorySystem
from repro.sim.capability import MAX_CORES, DirectoryCapacityError
from repro.sim.fastcache import SHORT_SWEEP, SHORT_SWEEP_SINGLE, FastMemorySystem
from repro.sim.machine import BAGLE_27
from tests.test_fastcache_differential import MEM, Harness, Shipped, assert_models_equal, machine

L1 = CacheConfig(size=1024, line_size=64, assoc=2, read_latency=2, write_latency=0)
L2 = CacheConfig(size=8192, line_size=64, assoc=4, read_latency=20, write_latency=20)


def make_pair(ncores=2, regions=(("R", 64 * 512),), l2_groups=None):
    space = RegionSpace()
    for name, size in regions:
        space.region(name, size)
    exact = CoherentMemorySystem(ncores, L1, L2, MEM, space, l2_groups=l2_groups)
    fast = FastMemorySystem(ncores, L1, L2, MEM, space, l2_groups=l2_groups)
    return space, exact, fast


def summary_read(space, name, **kw):
    return AccessSummary().read(space.get(name), **kw)


def summary_write(space, name, **kw):
    return AccessSummary().write(space.get(name), **kw)


def test_cold_stream_matches_exact():
    space, exact, fast = make_pair()
    s = summary_read(space, "R")
    ce = exact.run_summary(0, s)
    cf = fast.run_summary(0, s)
    assert ce == cf
    assert exact.stats[0].mem_misses == fast.stats[0].mem_misses == 512


def test_small_footprint_reuse_matches_exact():
    space, exact, fast = make_pair(regions=(("S", 8 * 64),))
    s = AccessSummary().read(space.get("S"), reps=5)
    ce = exact.run_summary(0, s)
    cf = fast.run_summary(0, s)
    assert ce == cf
    assert fast.stats[0].l1_hits == exact.stats[0].l1_hits == 32


def test_producer_consumer_coherence_matches_exact():
    space, exact, fast = make_pair(regions=(("S", 16 * 64),))
    w = summary_write(space, "S")
    r = summary_read(space, "S")
    for model in (exact, fast):
        model.run_summary(0, w)
        model.run_summary(1, r)
    assert exact.stats[1].coherence_misses == 16
    assert fast.stats[1].coherence_misses == 16
    assert exact.stats[1].cycles == fast.stats[1].cycles


def test_upgrade_on_shared_write():
    space, exact, fast = make_pair(regions=(("S", 4 * 64),))
    r = summary_read(space, "S")
    w = summary_write(space, "S")
    for model in (exact, fast):
        model.run_summary(0, r)
        model.run_summary(1, r)
        model.run_summary(0, w)
    assert exact.stats[0].upgrades == 4
    assert fast.stats[0].upgrades == 4


def test_write_after_remote_write_is_coherence_miss():
    space, exact, fast = make_pair(regions=(("S", 4 * 64),))
    w = summary_write(space, "S")
    for model in (exact, fast):
        model.run_summary(0, w)
        model.run_summary(1, w)
    assert exact.stats[1].coherence_misses == 4
    assert fast.stats[1].coherence_misses == 4


def test_capacity_eviction_approximation():
    """Streaming far beyond L1 capacity: both models show ~0 reuse hits."""
    space, exact, fast = make_pair(regions=(("BIG", 64 * 1024),))  # 1024 lines
    s = AccessSummary().read(space.get("BIG"), reps=2)
    exact.run_summary(0, s)
    fast.run_summary(0, s)
    # Footprint (1024 lines) >> L1 (16 lines): second sweep misses L1 in
    # both models; it hits L2 partially in neither (footprint > L2 too? L2
    # holds 128 lines, footprint 1024 -> mostly misses).
    for model in (exact, fast):
        st_ = model.stats[0]
        assert st_.l1_hits <= st_.accesses * 0.05


def test_l2_reuse_between_sweeps():
    """Footprint fits L2 but not L1: second sweep served from L2 (mostly).

    Both models keep a small resident tail in L1 (the last ~16 of 64
    lines), so the second sweep splits into a few L1 hits plus L2 hits —
    and crucially zero extra memory misses.
    """
    space, exact, fast = make_pair(regions=(("MID", 64 * 64),))  # 64 lines
    s = AccessSummary().read(space.get("MID"), reps=2)
    for model in (exact, fast):
        model.run_summary(0, s)
        st_ = model.stats[0]
        assert st_.mem_misses == 64
        assert st_.l1_hits + st_.l2_hits == 64
        assert st_.l2_hits >= 40


def test_shared_l2_groups():
    space, exact, fast = make_pair(
        ncores=2, regions=(("S", 8 * 64),), l2_groups=[0, 0]
    )
    r = summary_read(space, "S")
    for model in (exact, fast):
        model.run_summary(0, r)
        model.run_summary(1, r)
        assert model.stats[1].l2_hits == 8


def test_strided_column_access():
    """Column sweeps (stride >> line) touch one line per element."""
    space = RegionSpace()
    m = space.region("M", 64 * 64 * 8)  # 64x64 doubles
    fast = FastMemorySystem(1, L1, L2, MEM, space)
    col = AccessSummary().read(m, offset=0, count=64, elem_size=8, stride=64 * 8)
    fast.run_summary(0, col)
    assert fast.stats[0].accesses == 64


def test_stats_conservation_fast():
    space, _exact, fast = make_pair(regions=(("S", 32 * 64),))
    fast.run_summary(0, summary_write(space, "S"))
    fast.run_summary(1, summary_read(space, "S"))
    fast.run_summary(0, summary_read(space, "S", reps=3))
    for st_ in fast.stats:
        assert (
            st_.l1_hits + st_.l2_hits + st_.mem_misses + st_.coherence_misses
            == st_.accesses
        )


def test_too_many_cores_rejected():
    space = RegionSpace()
    space.region("R", 64)
    # 64 cores fit exactly one directory word (the old flat mask stopped
    # at 63); the two-level directory walls off at 64 nodes x 64 cores.
    assert FastMemorySystem(64, L1, L2, MEM, space).ncores == 64
    assert FastMemorySystem(512, L1, L2, MEM, space)._nwords == 8
    with pytest.raises(DirectoryCapacityError):
        FastMemorySystem(MAX_CORES + 1, L1, L2, MEM, space)
    with pytest.raises(ValueError):
        FastMemorySystem(8, L1, L2, MEM, space, directory_words=0)


def test_lazy_region_declaration():
    space = RegionSpace()
    fast = FastMemorySystem(1, L1, L2, MEM, space)
    late = space.region("LATE", 8 * 64)
    cycles = fast.run_summary(0, AccessSummary().read(late))
    assert cycles > 0
    assert fast.stats[0].mem_misses == 8


@settings(max_examples=25, deadline=None)
@given(
    pattern=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # core
            st.booleans(),  # write?
            st.integers(min_value=0, max_value=7),  # chunk index
        ),
        min_size=1,
        max_size=30,
    )
)
# Hypothesis's falsifier for the dirty-read writeback aliasing bug: on a
# dense sweep ``own`` is a view of ``rs.owner``, so clearing the owner
# before reading it sent the downgrade writeback to the *last* L2 group
# instead of the owner's — a third core then saw phantom L2 hits where
# the exact model (and the fixed fast model) goes to DRAM.
@example(
    pattern=[
        (0, True, 0),
        (0, True, 2),
        (1, False, 0),
        (1, False, 2),
        (2, False, 0),
        (2, False, 2),
    ],
)
def test_cross_validation_chunked_traffic(pattern):
    """Exact vs fast agreement on chunked producer/consumer traffic.

    Chunks are 8 lines (512B); with an L1 of 16 lines, recently-touched
    chunks stay resident in both models, so classifications should agree
    closely on this workload-shaped (streaming, chunked) traffic.
    """
    space, exact, fast = make_pair(ncores=3, regions=(("C", 8 * 8 * 64),))
    region = space.get("C")
    for core, write, chunk in pattern:
        s = AccessSummary()
        kw = dict(offset=chunk * 8 * 64, count=64, elem_size=8, stride=8)
        (s.write if write else s.read)(region, **kw)
        exact.run_summary(core, s)
        fast.run_summary(core, s)
    for c in range(3):
        se, sf = exact.stats[c], fast.stats[c]
        assert se.accesses == sf.accesses
        assert se.coherence_misses == sf.coherence_misses
        # The fast model is fully-associative time-distance LRU; the exact
        # model is 2-way set-associative.  They agree on streaming and
        # producer/consumer traffic but may split hits differently when an
        # *older* chunk is re-touched between two touches of another chunk
        # (stack reordering the time-distance clock cannot see).  Allow
        # that bounded divergence; DRAM-level misses stay close.
        assert abs(se.l1_hits - sf.l1_hits) <= max(8, se.accesses * 0.35)
        assert abs(se.mem_misses - sf.mem_misses) <= max(8, se.accesses * 0.35)


# -- short sweeps: _sweep_lines and _sweep against the reference -----------------

# 4-line L1s and 16-line L2s over a region whose ops all start in its
# first 12 lines: cores keep colliding on the same lines *and* keep
# overflowing both levels, so the directory and the residency thresholds
# both decide hits.
L1_TINY = CacheConfig(size=256, line_size=64, assoc=2, read_latency=2, write_latency=0)
L2_TINY = CacheConfig(size=1024, line_size=64, assoc=4, read_latency=20, write_latency=20)
LINES = 32


def _line_op(region, write, shape, line, k, reps):
    """*shape* 0/1 are the two one-line forms, 2/3 sweeps of *k* lines,
    both sides of ``SHORT_SWEEP``."""
    if shape == 0:  # dense, inside one line: up to 8 8-byte slots
        slots = min(k, 8)
        start = (line + 1) * 64 - slots * 8
        kw = dict(offset=start, count=slots, elem_size=8, stride=8)
    elif shape == 1:  # strided form: line_indices returns a one-element list
        kw = dict(offset=line * 64, count=1, elem_size=8, stride=128)
    elif shape == 2:  # dense, k lines
        kw = dict(offset=line * 64, count=8 * k, elem_size=8, stride=8)
    else:  # strided, every other line, k lines
        kw = dict(offset=line * 64, count=k, elem_size=8, stride=128)
    s = AccessSummary()
    (s.write if write else s.read)(region, reps=reps, **kw)
    return s


@settings(max_examples=100, deadline=None)
@given(
    ncores=st.sampled_from([1, 2, 3, 4, 8, 27, 64, 70, 130]),
    extra_words=st.integers(min_value=0, max_value=2),
    shared_l2=st.booleans(),
    single_issuer=st.booleans(),
    ops=st.lists(
        st.tuples(
            # active-core index; -1: every core in turn (all then share)
            st.sampled_from([-1] + [0, 1, 2, 3] * 4),
            st.booleans(),  # write?
            st.sampled_from([0, 1, 2, 2, 3, 3]),  # shape, see _line_op
            st.integers(min_value=0, max_value=11),  # first line
            # k: short sweeps up to one line past the multi-core cut
            st.one_of(
                st.integers(min_value=1, max_value=10),
                st.integers(min_value=11, max_value=SHORT_SWEEP + 1),
            ),
            st.integers(min_value=1, max_value=3),  # reps
        ),
        min_size=1,
        max_size=60,
    ),
)
# Branches random streams rarely reach.  An upgrade seen only through the
# presence word (the other sharer lives in another directory node):
@example(
    ncores=70, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[(0, False, 0, 5, 1, 1), (3, False, 0, 5, 1, 1), (0, True, 0, 5, 1, 1)],
)
# ... a line this core still owns but has evicted from its L1:
@example(
    ncores=2, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[(0, True, 0, 3, 1, 1), (0, False, 2, 6, 5, 1), (0, False, 0, 3, 1, 1)],
)
# ... a line that has aged out of the L2 as well:
@example(
    ncores=2, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[
        (0, False, 0, 0, 1, 1), (0, False, 2, 2, 9, 1),
        (0, False, 2, 11, 9, 1), (0, False, 0, 0, 1, 1),
    ],
)
# ... one short read downgrading lines of two owners, one in the reader's
# L2 group (its write-back stamp is then overwritten) and one in another:
@example(
    ncores=4, extra_words=0, shared_l2=True, single_issuer=False,
    ops=[(0, True, 0, 2, 1, 1), (2, True, 0, 3, 1, 1), (1, False, 2, 2, 3, 1)],
)
# ... a short write invalidating resident copies on two cores:
@example(
    ncores=4, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[
        (1, False, 2, 4, 3, 1), (2, False, 2, 4, 3, 1),
        (0, True, 2, 4, 4, 1), (1, False, 2, 8, 2, 1),
    ],
)
# ... a miss/hit/miss/miss dense run: two full DRAM misses and one burst:
@example(
    ncores=2, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[(0, False, 0, 1, 1, 1), (0, False, 2, 0, 4, 1)],
)
# ... more holes than fills (4 invalidated copies, 2 refills), then fewer:
@example(
    ncores=2, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[
        (1, False, 2, 0, 4, 1), (0, True, 2, 0, 4, 1),
        (1, False, 2, 5, 2, 1), (1, False, 2, 8, 5, 1),
    ],
)
# ... a cold strided sweep off the time origin (every miss pays in full):
@example(
    ncores=1, extra_words=0, shared_l2=False, single_issuer=True,
    ops=[(0, False, 3, 0, 3, 1)],
)
# ... a write over a copy its core has already evicted (no hole):
@example(
    ncores=2, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[(1, False, 0, 0, 1, 1), (1, False, 2, 2, 6, 1), (0, True, 0, 0, 1, 1)],
)
# ... an upgrade of a copy another core of the same node shares:
@example(
    ncores=2, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[(0, False, 0, 5, 1, 1), (1, False, 0, 5, 1, 1), (0, True, 2, 4, 3, 1)],
)
# ... a copy invalidated while its timestamp is still resident:
@example(
    ncores=2, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[(0, False, 0, 3, 1, 1), (1, True, 0, 3, 1, 1), (0, False, 2, 2, 3, 1)],
)
# Pending ramps: ranges longer than the tiny L1/L2, so a re-stream leaves
# rows whose ramp differs from a fresh stamp.  A short read under its own
# pending L2 ramp:
@example(
    ncores=2, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[(0, False, 2, 0, 20, 1)] * 2 + [(0, False, 2, 0, 3, 1)],
)
# ... a short write over another core's L1 ramp whose array row lags it
# (the third pass is O(1) and writes no array):
@example(
    ncores=2, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[(1, False, 2, 0, 12, 1)] * 3 + [(0, True, 0, 9, 1, 1)],
)
# ... and a short read downgrading a line under the owner's L2 ramp:
@example(
    ncores=2, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[(0, True, 2, 0, 30, 1), (0, False, 2, 0, 30, 1), (1, False, 0, 0, 1, 1)],
)
# A multi-line write over lines every core holds (its holes are credited
# in one batch), then reads that consume them: on one directory word ...
@example(
    ncores=27, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[
        (-1, False, 2, 4, 3, 1), (0, True, 2, 4, 3, 1),
        (-1, False, 2, 2, 5, 1), (2, True, 3, 0, 12, 1),
        (-1, False, 3, 2, 3, 1),
    ],
)
# ... and on two (70 cores: the writer's node and a remote one):
@example(
    ncores=70, extra_words=0, shared_l2=False, single_issuer=False,
    ops=[
        (-1, False, 2, 4, 3, 1), (3, True, 2, 4, 3, 1),
        (-1, False, 2, 2, 5, 1), (0, True, 3, 0, 12, 1),
        (-1, False, 3, 2, 3, 1),
    ],
)
def test_sweep_lines_state_identical_to_sweep(
    ncores, extra_words, shared_l2, single_issuer, ops
):
    """One op stream through the shipped model, ``_sweep`` alone and the
    reference: equal cycles and state after every op, with sweeps on both
    sides of the cut interleaved so the holes, upgrades and downgrades
    one route sets up are consumed by the other."""
    space = RegionSpace()
    # Room for the longest strided op: k lines every other line from 11.
    region = space.region("R", (12 + 2 * (SHORT_SWEEP + 1)) * 64)
    kw = machine(ncores, shared_l2, single_issuer, extra_words)
    harness = Harness(ncores, L1_TINY, L2_TINY, MEM, space, **kw)
    cores = sorted({0, 1 % ncores, ncores // 2, ncores - 1})
    for ci, write, shape, line, k, reps in ops:
        if single_issuer:
            issuers = cores[:1]
        else:
            issuers = range(ncores) if ci < 0 else [cores[ci % len(cores)]]
        s = _line_op(region, write, shape, line, k, reps)
        for core in issuers:
            harness.run_summary(core, s)


@pytest.mark.parametrize("single_issuer", [False, True])
@pytest.mark.parametrize("stride", [8, 128], ids=["dense", "strided"])
@pytest.mark.parametrize("nlines", [1, 8, 9, "cut", "cut+1"])
def test_short_sweep_cut(nlines, stride, single_issuer):
    """Up to the issuer kind's cut — ``SHORT_SWEEP`` lines multi-core,
    ``SHORT_SWEEP_SINGLE`` single-issuer — never reach ``_sweep``; one
    more does; 8 and 9 lines stay scalar on both."""
    assert (SHORT_SWEEP, SHORT_SWEEP_SINGLE) == (32, 16)
    cut = SHORT_SWEEP_SINGLE if single_issuer else SHORT_SWEEP
    nlines = {"cut": cut, "cut+1": cut + 1}.get(nlines, nlines)
    space = RegionSpace()
    region = space.region("R", 2 * (SHORT_SWEEP + 1) * 64)
    fast = Shipped(2, L1_TINY, L2_TINY, MEM, space, single_issuer=single_issuer)
    count = nlines * (8 if stride == 8 else 1)
    for write in (False, True):
        s = AccessSummary()
        (s.write if write else s.read)(region, count=count, stride=stride)
        fast.run_summary(0, s)
    assert fast.stats[0].accesses == 2 * nlines
    assert fast.routes["sweep"] == (2 if nlines > cut else 0)


@pytest.mark.parametrize("ncores", [2, 4, 6])
def test_partial_sum_false_sharing_matches_exact(ncores):
    """The TRAPEZ partial-sum shape: cores write neighbouring 8-byte slots
    of the same few lines in rotation (upgrades, invalidations, holes),
    then core 0 reads the whole array.  Pins the one-line path to the
    exact model, not only to ``_sweep``."""
    space = RegionSpace()
    sums = space.region("SUMS", 4 * 64)
    exact = CoherentMemorySystem(ncores, L1, L2, MEM, space)
    fast = FastMemorySystem(ncores, L1, L2, MEM, space)
    for slot in range(32):
        w = AccessSummary().write(sums, offset=slot * 8, count=1, elem_size=8)
        assert exact.run_summary(slot % ncores, w) == fast.run_summary(
            slot % ncores, w
        )
    r = AccessSummary().read(sums)
    assert exact.run_summary(0, r) == fast.run_summary(0, r)
    for c in range(ncores):
        assert exact.stats[c] == fast.stats[c], f"core {c}"


@pytest.mark.parametrize("count", [1, 64, 128])
def test_single_issuer_guard_raises_before_any_write(count):
    """A second issuing core is rejected on a one-line and an 8-line sweep
    (``_sweep_lines``) exactly as on a 16-line one (``_sweep``), leaving
    the model untouched."""
    space = RegionSpace()
    region = space.region("R", LINES * 64)
    fast = FastMemorySystem(2, L1, L2, MEM, space, single_issuer=True)
    untouched = FastMemorySystem(2, L1, L2, MEM, space, single_issuer=True)
    first = AccessSummary().write(region, count=64, elem_size=8)
    fast.run_summary(0, first)
    untouched.run_summary(0, first)
    second = AccessSummary().write(region, count=count, elem_size=8)
    with pytest.raises(RuntimeError, match="single_issuer but saw traffic"):
        fast.run_summary(1, second)
    assert_models_equal(fast, untouched, ("R",))


# -- 1-based timestamps: cold start, capacity edges, untouched rows ------------
# Clocks start at 1 and timestamp 0 means "never filled"; every residency
# threshold is max(1, clock - capacity + 1).  These are the streams where an
# off-by-one in that shift would show: the very first fill, a line exactly
# capacity - 1 / capacity fills old at each level, and invalidations that
# meet rows nobody ever filled.  L1_TINY holds 4 lines, L2_TINY 16.
def _reads(lines):
    return [(0, False, line, 1) for line in lines]


def _edge_op(region, write, line, nlines):
    s = AccessSummary()
    (s.write if write else s.read)(region, offset=line * 64, count=8 * nlines)
    return s


_EDGE_STREAMS = {
    # (core, write?, first line, lines); expected per-core stat deltas below
    "first_fill_at_origin": _reads([3, 3, 4]) + [(0, False, 3, 2)],
    "first_fill_multi_line": [(0, False, 0, 3), (0, False, 0, 3), (0, False, 2, 2)],
    "l1_capacity_minus_one": _reads([0, 1, 2, 3, 0]),
    "l1_capacity_exactly": _reads([0, 1, 2, 3, 4, 0]),
    "l1_capacity_exactly_multi_line": [(0, False, 0, 1), (0, False, 1, 4), (0, False, 0, 1)],
    "l2_capacity_minus_one": _reads(range(16)) + _reads([0]),
    "l2_capacity_exactly": _reads(range(17)) + _reads([0]),
    "l2_capacity_exactly_multi_line": [(0, False, 0, 1), (0, False, 1, 16), (0, False, 0, 1)],
    # core 1 holds line 5 only; cores 0 and 2 have never filled anything when
    # their writes sweep over it (four lines, then one)
    "hole_from_never_filled_row": [
        (1, False, 5, 1), (0, True, 4, 4), (1, False, 9, 1),
        (1, False, 12, 1), (2, True, 12, 1), (1, False, 13, 1),
    ],
    "holes_for_two_sharers": [
        (1, False, 5, 1), (2, False, 5, 1), (0, True, 4, 4),
        (1, False, 9, 1), (2, False, 9, 1),
    ],
}
#: The last op of each stream, as (l1_hits, l2_hits, mem_misses) of its core.
_EDGE_LAST_OP = {
    "first_fill_at_origin": (2, 0, 0),
    "first_fill_multi_line": (1, 0, 1),
    "l1_capacity_minus_one": (1, 0, 0),
    "l1_capacity_exactly": (0, 1, 0),
    "l1_capacity_exactly_multi_line": (0, 1, 0),
    "l2_capacity_minus_one": (0, 1, 0),
    "l2_capacity_exactly": (0, 0, 1),
    "l2_capacity_exactly_multi_line": (0, 0, 1),
}


@pytest.mark.parametrize("single_issuer", [False, True])
@pytest.mark.parametrize("stream", sorted(_EDGE_STREAMS))
def test_time_origin_edges(stream, single_issuer):
    """Both fast routes ≡ the reference after every op and ≡ the exact
    model's cycles and stats, on the streams that sit on the time origin."""
    ops = _EDGE_STREAMS[stream]
    if single_issuer and any(core for core, *_ in ops):
        pytest.skip("stream issues from several cores")
    space = RegionSpace()
    region = space.region("R", LINES * 64)
    harness = Harness(3, L1_TINY, L2_TINY, MEM, space, single_issuer=single_issuer)
    shipped = harness.shipped
    exact = CoherentMemorySystem(3, L1_TINY, L2_TINY, MEM, space)
    for core, *op in ops:
        s = _edge_op(region, *op)
        before = replace(shipped.stats[core])
        assert harness.run_summary(core, s) == exact.run_summary(core, s)
    for c in range(3):
        assert exact.stats[c] == shipped.stats[c], f"core {c}"
    if stream in _EDGE_LAST_OP:
        after = shipped.stats[core]
        assert (
            after.l1_hits - before.l1_hits,
            after.l2_hits - before.l2_hits,
            after.mem_misses - before.mem_misses,
        ) == _EDGE_LAST_OP[stream]


def test_holes_are_credited_to_resident_copies_only():
    """The two hole streams, by their tallies: one hole per invalidated
    resident copy, none from the never-filled lines around it, and the
    victim's next fill reoccupies the slot without advancing its clock."""
    space = RegionSpace()
    region = space.region("R", LINES * 64)
    fast = FastMemorySystem(3, L1_TINY, L2_TINY, MEM, space)

    def run(core, *op):
        fast.run_summary(core, _edge_op(region, *op))

    ops = _EDGE_STREAMS["hole_from_never_filled_row"]
    run(*ops[0])
    assert fast._clock.tolist() == [1, 2, 1]
    run(*ops[1])  # core 0, nothing ever filled, writes lines 4..7 over it
    assert fast._holes == [0, 1, 0]
    run(*ops[2])
    assert fast._holes == [0, 0, 0] and fast._clock.tolist() == [5, 2, 1]
    run(*ops[3])
    run(*ops[4])  # core 2, nothing ever filled, writes line 12 (one-line path)
    assert fast._holes == [0, 1, 0]
    run(*ops[5])
    assert fast._holes == [0, 0, 0] and fast._clock.tolist() == [5, 3, 2]


@pytest.mark.parametrize("parallel", [True, False], ids=["4-kernels", "baseline"])
def test_rows_of_cores_that_never_issue_stay_zero(parallel):
    """A run writes residency rows for the cores that issued and for no
    other: the (cores, lines) arrays are born zero and stay zero there."""
    prog = get_benchmark("susan").build(problem_sizes("susan")["small"], unroll=8)
    if parallel:
        runtime = SimulatedRuntime(prog, BAGLE_27, nkernels=4)
        runtime.run()
        memsys = runtime.memsys
    else:
        memsys = BAGLE_27.memory_system(prog.env.regions, single_issuer=True)
        for inst in prog.expanded().instances:
            memsys.run_summary(0, inst.template.access_summary(prog.env, inst.ctx))
    issued = np.array([st_.accesses > 0 for st_ in memsys.stats])
    assert issued.sum() == (4 if parallel else 1)
    for name in ("img", "sm", "out"):
        l1_last, l2_last = memsys._settled(name)
        assert not l1_last[~issued].any() and not l2_last[~issued].any()
        assert l1_last[issued].any(axis=1).all()
        assert l1_last.min() >= 0  # no other "never" sentinel survives
