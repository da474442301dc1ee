"""The vector sweep against the one it replaced.

``ReferenceSweep`` carries ``FastMemorySystem._sweep`` as it stood before
it learned to skip the work a sweep's lines do not need (an all-hit
sweep's miss, owner and L2 masks, the owner test of misses nobody owns,
the cumulative sum of one leading run of fills), verbatim, with the
helpers it called then: ``_fill_single``, ``_absorb_holes`` with its
per-bit loop over the sharers and ``_invalidate`` taking the whole sharer
word.  It lives here only, as an oracle.

Both models send every sweep, short or repeated, through their own
``_sweep`` and must return equal cycles and leave equal settled state
after every op.  The named streams each reach one branch of the shipped
sweep, and say so: a stream whose op never takes its branch fails.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.accesses import AccessSummary, RegionSpace
from repro.sim.cache import CacheConfig
from repro.sim.capability import CORES_PER_NODE
from repro.sim.fastcache import FastMemorySystem, _RegionState
from tests.test_fastcache import MEM, _assert_same_state


# -- the reference sweep ----------------------------------------------------------


class ReferenceSweep(FastMemorySystem):
    """The fast model with the previous vector sweep."""

    def _fill_single(self, dst: np.ndarray, miss: np.ndarray, k: int,
                     base) -> None:
        """Write post-sweep fill timestamps ``base + cumsum(miss)`` into the
        contiguous view *dst*, shortcutting the cumulative sum when the
        misses form a single leading run."""
        if k == 0 or k == dst.size or bool(miss[:k].all()):
            self._write_ramp(dst, k, base)
        else:
            np.add(np.cumsum(miss, dtype=np.int64), base, out=dst)

    def _absorb_holes(self, rs: _RegionState, sel, masked: np.ndarray,
                      word: int) -> None:
        """Credit invalidation holes to every core of directory node *word*
        whose set bits appear in *masked* (per-line core masks of copies
        being invalidated): a still-resident invalidated copy frees an L1
        slot there.  One sharer (the overwhelmingly common case — a single
        producer) takes a scalar path; several sharers are handled as one
        vectorised (ncores_sharing, nlines) residency comparison instead
        of a per-bit Python loop.  Reads other cores' L1 rows straight from
        the arrays: the writing ``_sweep`` has settled the region."""
        union = int(np.bitwise_or.reduce(masked)) if masked.size else 0
        if not union:
            return
        base = word * CORES_PER_NODE
        cap = self.l1_capacity
        if union & (union - 1) == 0:  # exactly one sharing core
            other = base + union.bit_length() - 1
            held = (masked & self._corebit[other]) != 0
            olast = rs.l1_last[other, sel]
            resident = held & (olast >= max(1, self._clock[other] - cap + 1))
            self._holes[other] += int(np.count_nonzero(resident))
            return
        cores = []
        while union:
            cores.append(base + (union & -union).bit_length() - 1)
            union &= union - 1
        carr = np.asarray(cores, dtype=np.int64)
        bits = self._corebit_arr[carr % CORES_PER_NODE]
        held = (masked[None, :] & bits[:, None]) != 0
        thr = np.maximum(1, self._clock[carr] - cap + 1)
        rows = carr if isinstance(sel, slice) else carr[:, None]
        resident = held & (rs.l1_last[rows, sel] >= thr[:, None])
        for core, count in zip(cores, resident.sum(axis=1).tolist()):
            self._holes[core] += count

    def _invalidate(self, rs: _RegionState, sel, core: int,
                    sh: np.ndarray) -> None:
        """A write by *core* over *sel*, whose sharer words in *core*'s
        directory node are *sh*: invalidate every remote copy and make
        *core* the lines' one sharer and owner.

        Invalidating a *resident* remote copy frees an L1 slot there:
        ``_absorb_holes`` records it as a hole so the victim's next fills
        do not advance its LRU clock (matching set-associative behaviour,
        where a refill reoccupies the invalidated way instead of
        evicting).  Private data (no remote copies, the common case for
        each kernel's own output ranges) costs one reduction; otherwise
        only directory nodes named by the presence union are visited.
        Reads other cores' L1 rows and clocks, which no sweep by *core*
        changes, so it may follow the sweep's own residency updates."""
        word = self._word_of[core]
        if self._nwords == 1:
            self._absorb_holes(rs, sel, sh & self._othermask[core], 0)
        else:
            pres_union = int(np.bitwise_or.reduce(rs.presence[sel]))
            while pres_union:
                w2 = (pres_union & -pres_union).bit_length() - 1
                pres_union &= pres_union - 1
                if w2 == word:
                    self._absorb_holes(rs, sel, sh & self._othermask[core], w2)
                else:
                    self._absorb_holes(rs, sel, rs.sharers[w2, sel], w2)
                    rs.sharers[w2, sel] = 0
            rs.presence[sel] = self._nodebit[word]
        rs.sharers[word, sel] = self._corebit[core]
        rs.owner[sel] = core

    def _sweep(
        self, core: int, region: str, sel: slice | np.ndarray, n: int,
        is_write: bool, dense: bool = True,
    ) -> int:
        rs = self._region_state(region)
        group = self.l2_groups[core]
        st = self.stats[core]
        single = self._single_issuer
        nw = self._nwords
        if single and core != self._issuer:
            self._claim_issuer(core)
        if rs.ramp1 or rs.ramp2:
            # Settle what this sweep reads: its own two rows, and before a
            # write every row (other cores' L1 rows are read for holes, and
            # their sharer bits — what their ramps rely on — are cleared).
            if is_write:
                self._settle(rs)
            else:
                self._settle_row(rs.l1_last, rs.ramp1, core)
                self._settle_row(rs.l2_last, rs.ramp2, group)

        clock = self._clock[core]
        l2_clock = self._l2_clock[group]

        # Residency is one comparison per level: ``last >= 1`` (ever
        # filled) ``and clock - last < capacity`` is, for integer clocks,
        # exactly ``last >= max(1, clock - capacity + 1)``.
        last = rs.l1_last[core, sel]
        thr1 = max(1, clock - self.l1_capacity + 1)
        thr2 = max(1, l2_clock - self.l2_capacity + 1)
        l2_last = rs.l2_last[group, sel]

        if single:
            # One core: nothing invalidates, so "ever filled and still
            # recent" is the whole residency story — the sharer directory
            # and owner array are provably inert (no remote copies to
            # track, no remote owner to downgrade) and never touched.
            miss = last < thr1
            n_miss = int(np.count_nonzero(miss))
            n_l1 = n - n_miss
            remote_owned = None
            n_coh = 0
            mem_miss = miss & (l2_last < thr2)
            n_mem = int(np.count_nonzero(mem_miss))
            n_l2 = n_miss - n_mem
        else:
            word = self._word_of[core]
            mybit = self._corebit[core]
            otherbits = self._othermask[core]
            sh = rs.sharers[word, sel]
            own = rs.owner[sel]
            in_l1 = ((sh & mybit) != 0) & (last >= thr1)
            miss = ~in_l1
            # Remote modified owner → cache-to-cache transfer.
            remote_owned = miss & (own >= 0) & (own != core)
            plain_miss = miss & ~remote_owned
            n_coh = int(np.count_nonzero(remote_owned))
            # L2 residency for plain misses.
            in_l2 = l2_last >= thr2
            l2_hit = plain_miss & in_l2
            mem_miss = plain_miss & ~in_l2
            n_l1 = int(np.count_nonzero(in_l1))
            n_l2 = int(np.count_nonzero(l2_hit))
            n_mem = int(np.count_nonzero(mem_miss))

        l1r, l1w = self.l1cfg.read_latency, self.l1cfg.write_latency
        l2r = self.l2cfg.read_latency
        cycles = 0
        n_upg = 0

        if is_write:
            if single:
                cycles += n_l1 * l1w  # no remote sharers → no upgrades
            else:
                if nw == 1:
                    remote_any = (sh & otherbits) != 0
                else:
                    # Two-level test: other sharers exist in my node's
                    # word, or the presence word names any other node.
                    pres = rs.presence[sel]
                    remote_any = ((sh & otherbits) != 0) | (
                        (pres & self._othernodes[word]) != 0
                    )
                shared_hit = in_l1 & remote_any
                n_upg = int(np.count_nonzero(shared_hit))
                cycles += n_upg * (l1w + self.mem.upgrade_latency)
                cycles += (n_l1 - n_upg) * l1w
                # All written lines: invalidate remote copies, become owner.
                self._invalidate(rs, sel, core, sh)
        else:
            cycles += n_l1 * l1r
            if not single:
                # Reads: remote-owned lines downgrade (owner cleared, shared).
                if n_coh:
                    # The owners' L2 rows are stamped below: settle first.
                    self._settle(rs)
                    downgrade = self._lines_of(sel)[remote_owned]
                    # The previous owner's copy stays valid (now SHARED);
                    # the line also lands in the owner's L2 via writeback.
                    # ``own`` aliases ``rs.owner`` on dense sweeps, so the
                    # owner groups must be read before the owner is cleared.
                    owner_groups = self._group_of[own[remote_owned].astype(np.int64)]
                    rs.owner[downgrade] = -1
                    for g in np.unique(owner_groups):
                        rs.l2_last[g, downgrade[owner_groups == g]] = self._l2_clock[g]
                rs.sharers[word, sel] |= mybit
                if nw > 1:
                    rs.presence[sel] |= self._nodebit[word]

        cycles += n_coh * (self.mem.cache_to_cache_latency + l1r)
        cycles += n_l2 * (l1r + l2r)
        # DRAM misses: dense sweeps stream — within each consecutive run of
        # missing lines only the first pays full latency, the rest the
        # pipelined burst latency (open-page / prefetch overlap).
        if n_mem:
            if dense:
                mm = mem_miss
                run_starts = int(mm[0]) + int(np.count_nonzero(mm[1:] & ~mm[:-1]))
                full, burst = run_starts, n_mem - run_starts
            else:
                full, burst = n_mem, 0
            # Run-leading misses pay the full hierarchy; the pipelined rest
            # of each run only the per-line burst cost (see cache.py).
            cycles += full * (l1r + l2r + self.mem.dram_latency)
            cycles += burst * (l1r + self.mem.dram_burst_latency)

        # Residency updates.  The logical clocks advance only on *fills*
        # (misses): a hit re-references a resident line without displacing
        # anything, so time-distance then tracks true LRU stack distance
        # for the chunked/streaming patterns the workloads produce.  Fills
        # first consume any invalidation holes (freed slots) before they
        # start displacing LRU victims.
        if single and isinstance(sel, slice):
            # One core never receives invalidation holes, and dense sweeps
            # almost always miss in one leading run (the streaming shape:
            # any still-resident tail of the previous pass hits at the
            # end), so the fill counts 1..k then flat can be written
            # directly instead of through a cumulative sum.
            self._fill_single(rs.l1_last[core, sel], miss, n_miss, clock)
            self._clock[core] = clock + n_miss
            self._fill_single(rs.l2_last[group, sel], mem_miss, n_mem, l2_clock)
            self._l2_clock[group] = l2_clock + n_mem
        else:
            l1_fills = np.cumsum(miss, dtype=np.int64)
            total_fills = int(l1_fills[-1])
            holes_used = min(self._holes[core], total_fills)
            self._holes[core] -= holes_used
            rs.l1_last[core, sel] = clock + np.maximum(l1_fills - holes_used, 0)
            self._clock[core] = clock + total_fills - holes_used
            l2_fill_mask = mem_miss if single else (mem_miss | remote_owned)
            l2_fills = np.cumsum(l2_fill_mask, dtype=np.int64)
            rs.l2_last[group, sel] = l2_clock + l2_fills
            self._l2_clock[group] = l2_clock + int(l2_fills[-1])

        st.accesses += n
        st.l1_hits += n_l1
        st.l2_hits += n_l2
        st.mem_misses += n_mem
        st.coherence_misses += n_coh
        st.upgrades += n_upg
        st.cycles += cycles
        self.bus_transactions += n_coh + n_l2 + n_mem + n_upg
        return cycles


# -- both models, every sweep through _sweep ------------------------------------

# A 16-line L1 and a 32-line L2: sweeps of up to 16 lines can hit
# throughout, the pooled ranges of R (96 lines) overflow both levels, and a
# core sharing its L2 can age lines out of it that are still in the other
# core's L1.  S is the side region other traffic uses to plant invalidation
# holes.
L1 = CacheConfig(size=1024, line_size=64, assoc=2, read_latency=2, write_latency=0)
L2 = CacheConfig(size=2048, line_size=64, assoc=4, read_latency=20, write_latency=20)
R_LINES, S_LINES = 96, 32


def _sel(lines):
    if isinstance(lines, range):
        return slice(lines.start, lines.stop)
    return np.asarray(lines, dtype=np.int64)


class _VectorOnly:
    """Every sweep, short or repeated, through the model's own ``_sweep``."""

    def _sweep_lines(self, core, region, lines, is_write, dense):
        return self._sweep(core, region, _sel(lines), len(lines), is_write, dense)

    _sweep_range = _sweep_lines


class _Reference(_VectorOnly, ReferenceSweep):
    pass


class _Shipped(_VectorOnly, FastMemorySystem):
    """Names the shape of every sweep it runs, read off the state the sweep
    finds (no pending ramps: only the re-stream route makes them)."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.shapes = set()

    def _sweep(self, core, region, sel, n, is_write, dense=True):
        self.shapes |= _shapes(self, core, region, sel, n, is_write)
        return super()._sweep(core, region, sel, n, is_write, dense)


def _shapes(m, core, region, sel, n, is_write):
    rs = m._state[region]
    miss = rs.l1_last[core, sel] < max(1, m._clock.item(core) - m.l1_capacity + 1)
    single = m._single_issuer
    if not single:
        miss |= (rs.sharers[m._word_of[core], sel] & m._corebit[core]) == 0
    k = int(np.count_nonzero(miss))
    kind = "write" if is_write else "read"
    where = "single" if single else "multi"
    if not k:
        shape = "all-hit"
    elif k == n:
        shape = "all-miss"
    elif miss[:k].all():
        shape = "leading"
    else:
        shape = "scattered"
    tags = {f"{shape} {kind} {where}"}
    if not isinstance(sel, slice):
        tags.add(f"{shape} strided {where}")
    if k and m._holes[core]:
        tags.add(f"{shape} holes {where}")
    if not single:
        if not k and is_write:
            remote = rs.sharers[:, sel].copy()
            remote[m._word_of[core]] &= m._othermask[core]
            if remote.any():
                tags.add(f"all-hit upgrade nodes={m._nwords}")
        if k < n and (rs.l2_last[m.l2_groups[core], sel][~miss] < max(
            1, m._l2_clock.item(m.l2_groups[core]) - m.l2_capacity + 1
        )).any():
            tags.add("l1 hit, l2 aged")
        owners = rs.owner[sel][miss]
        if (owners == core).any():
            tags.add("own evicted line")
        if ((owners >= 0) & (owners != core)).any():
            tags.add("foreign owner")
            if not is_write and 2 * k < n:
                tags.add("foreign owner mostly-hit read")
    return tags


def _pair(ncores=4, shared_l2=False, single_issuer=False, extra_words=0):
    space = RegionSpace()
    space.region("R", R_LINES * 64)
    space.region("S", S_LINES * 64)
    kw = dict(
        l2_groups=[c // 2 for c in range(ncores)] if shared_l2 else None,
        single_issuer=single_issuer,
        directory_words=-(-ncores // CORES_PER_NODE) + extra_words if extra_words else None,
    )
    shipped = _Shipped(ncores, L1, L2, MEM, space, **kw)
    reference = _Reference(ncores, L1, L2, MEM, space, **kw)
    return space, shipped, reference


def _op(space, kind, write, line, nlines, reps=1):
    """*kind* ``dense`` or ``strided`` (every other line) on R, ``side``
    (dense) on S."""
    if kind == "strided":
        line = min(line, R_LINES - 2 * nlines)
        kw = dict(offset=line * 64, count=nlines, elem_size=8, stride=128)
    else:
        lines = S_LINES if kind == "side" else R_LINES
        line = min(line, lines - nlines)
        kw = dict(offset=line * 64, count=8 * nlines, elem_size=8, stride=8)
    s = AccessSummary()
    (s.write if write else s.read)(space.get("S" if kind == "side" else "R"), reps=reps, **kw)
    return s


def _run(space, shipped, reference, steps):
    for core, *op in steps:
        s = _op(space, *op)
        assert shipped.run_summary(core, s) == reference.run_summary(core, s), (core, op)
        _assert_same_state(shipped, reference, regions=("R", "S"))


def _read(core, line, nlines, kind="dense"):
    return (core, kind, False, line, nlines)


def _write(core, line, nlines, kind="dense"):
    return (core, kind, True, line, nlines)


# name -> (machine, steps, the shape the stream must reach)
_BRANCHES = {
    "all_hit_read": (
        {}, [_read(0, 0, 8)] * 2, "all-hit read multi"),
    "all_hit_write": (
        {}, [_write(0, 0, 8)] * 2, "all-hit write multi"),
    "all_hit_strided": (
        {}, [_read(0, 0, 6, "strided")] * 2, "all-hit strided multi"),
    "all_hit_upgrade": (
        {}, [_read(0, 0, 8), _read(1, 0, 8), _write(0, 0, 8)], "all-hit upgrade nodes=1"),
    "all_hit_upgrade_70": (
        {"ncores": 70}, [_read(0, 0, 8), _read(65, 0, 8), _write(0, 0, 8)],
        "all-hit upgrade nodes=2"),
    "all_hit_upgrade_130": (
        {"ncores": 130},
        [_read(c, 0, 8) for c in (0, 1, 64, 65, 129)] + [_write(129, 0, 8)],
        "all-hit upgrade nodes=3"),
    "all_hit_single_read": (
        {"ncores": 1, "single_issuer": True}, [_read(0, 0, 8)] * 2, "all-hit read single"),
    "all_hit_single_write": (
        {"ncores": 2, "single_issuer": True}, [_write(0, 0, 8)] * 2, "all-hit write single"),
    "all_hit_single_strided": (
        {"ncores": 1, "single_issuer": True},
        [_read(0, 0, 6, "strided")] * 2, "all-hit strided single"),
    "leading_run": (
        {}, [_read(0, 4, 8), _read(0, 0, 12)], "leading read multi"),
    "leading_run_write": (
        {}, [_read(0, 4, 8), _read(1, 0, 12), _write(0, 0, 12)], "leading write multi"),
    "scattered": (
        {}, [_read(0, 4, 4), _read(0, 0, 12)], "scattered read multi"),
    "scattered_strided": (
        {}, [_read(0, 4, 2, "strided"), _read(0, 0, 6, "strided")],
        "scattered strided multi"),
    # core 0 holds 4 lines of S; core 1's write there frees 4 slots
    "leading_run_holes": (
        {}, [_read(0, 6, 6), _read(0, 0, 4, "side"), _write(1, 0, 4, "side"),
             _read(0, 0, 12)], "leading holes multi"),
    "scattered_holes": (
        {}, [_read(0, 4, 4), _read(0, 0, 4, "side"), _write(1, 0, 4, "side"),
             _read(0, 0, 12)], "scattered holes multi"),
    "all_miss_holes": (
        {}, [_read(0, 0, 8, "side"), _write(1, 0, 8, "side"), _read(0, 0, 3)],
        "all-miss holes multi"),
    "strided_holes": (
        {}, [_read(0, 0, 8, "side"), _write(1, 0, 8, "side"), _read(0, 0, 3),
             _read(0, 0, 6, "strided")], "scattered holes multi"),
    "holes_130": (
        {"ncores": 130},
        [_read(c, 0, 8, "side") for c in (0, 1, 2, 64, 65)]
        + [_write(129, 0, 8, "side")]
        + [_read(c, 2, 12) for c in (0, 1, 2, 64, 65)], "all-miss holes multi"),
    "foreign_owner_mostly_hit": (
        {}, [_read(0, 0, 12), _write(1, 5, 1), _read(0, 0, 12)],
        "foreign owner mostly-hit read"),
    "foreign_owner_shared_l2": (
        {"shared_l2": True}, [_read(0, 0, 12), _write(1, 5, 2), _write(2, 9, 1),
                              _read(0, 0, 12)], "foreign owner mostly-hit read"),
    "foreign_owner_70": (
        {"ncores": 70}, [_read(0, 0, 12), _write(66, 2, 1), _read(0, 0, 12)],
        "foreign owner mostly-hit read"),
    # two remote-owned lines lead the L2 fills, the DRAM misses follow them
    "owner_before_dram": (
        {}, [_write(1, 0, 2), _read(0, 0, 10)], "foreign owner"),
    # core 1 ages lines 0..3 out of the L2 it shares with core 0, whose L1
    # still holds them: they hit, and only the lines after them go to DRAM
    "l1_resident_l2_aged": (
        {"shared_l2": True}, [_read(0, 0, 4), _read(1, 20, 40), _read(0, 0, 8)],
        "l1 hit, l2 aged"),
    "own_evicted_line": (
        {}, [_write(0, 0, 4), _read(0, 20, 20), _read(0, 0, 4)], "own evicted line"),
    "write_over_foreign_owner": (
        {}, [_read(0, 0, 12), _write(1, 3, 2), _write(0, 0, 12)], "foreign owner"),
}


@pytest.mark.parametrize("name", sorted(_BRANCHES))
def test_branch_streams(name):
    machine, steps, shape = _BRANCHES[name]
    space, shipped, reference = _pair(**machine)
    _run(space, shipped, reference, steps)
    assert shape in shipped.shapes, (shape, sorted(shipped.shapes))


_POOL = [(0, 8), (0, 12), (4, 8), (4, 4), (0, 24), (40, 16), (20, 20)]


@settings(max_examples=300, deadline=None)
@given(
    ncores=st.sampled_from([1, 2, 4, 4, 8, 27, 70, 130]),
    extra_words=st.integers(min_value=0, max_value=1),
    shared_l2=st.booleans(),
    single_issuer=st.booleans(),
    steps=st.lists(
        st.tuples(
            # active-core index; -1: every listed core in turn (all share)
            st.sampled_from([-1] + [0, 1, 2, 3, 4, 5] * 3),
            st.sampled_from(["dense"] * 4 + ["strided", "side"]),
            st.sampled_from([False] * 2 + [True]),
            st.one_of(
                st.sampled_from(_POOL),  # ranges that keep coming back
                st.tuples(st.integers(0, 80), st.integers(1, 24)),
            ),
            st.sampled_from([1, 1, 1, 2]),  # reps
        ),
        min_size=1,
        max_size=40,
    ),
)
@example(
    ncores=130, extra_words=0, shared_l2=False, single_issuer=False,
    steps=[(-1, "dense", False, (0, 12), 1), (5, "dense", True, (4, 8), 1),
           (-1, "dense", False, (0, 12), 1), (0, "strided", True, (0, 8), 1)],
)
def test_sweep_identical_to_reference(ncores, extra_words, shared_l2, single_issuer, steps):
    """Random streams over a few repeating ranges: the shipped ``_sweep``
    and the reference leave equal cycles and equal settled state after
    every op."""
    space, shipped, reference = _pair(ncores, shared_l2, single_issuer, extra_words)
    cores = sorted({0, 1 % ncores, 2 % ncores, ncores // 2, 65 % ncores, ncores - 1})
    run = []
    for ci, kind, write, (line, nlines), reps in steps:
        if single_issuer:
            issuers = cores[:1]
        else:
            issuers = cores if ci < 0 else [cores[ci % len(cores)]]
        run.extend((core, kind, write, line, nlines, reps) for core in issuers)
    _run(space, shipped, reference, run)
