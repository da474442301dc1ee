"""Vectorised LRU/MESI memory model for large benchmark sweeps.

The exact model (:mod:`repro.sim.cache`) walks every cache line of every
sweep through a set-associative LRU in pure Python — faithful but far too
slow for the paper's full parameter grid (5 benchmarks × 3 sizes × 5 kernel
counts × unroll factors).  This module keeps the same *protocol-level*
behaviour but processes each declared range with NumPy array operations:

* **Residency** is approximated by time-distance LRU: a per-core logical
  clock advances by the number of distinct lines each sweep touches, and a
  line is considered L1-resident when it was touched within the last
  ``L1 capacity`` line-touches (i.e. the cache is modelled as fully
  associative with LRU).  The same scheme models each (possibly shared) L2.
  Timestamps are 1-based — clocks start at 1 and ``0`` means "never
  filled" — so the ``(cores, lines)`` residency arrays are born as
  untouched zero pages and a core that never issues costs nothing; every
  residency threshold is therefore ``max(1, clock - capacity + 1)``, in
  ``_sweep``, ``_sweep_lines`` and ``_absorb_holes`` alike.
* **Coherence** is exact at line granularity: a per-line ``owner`` array
  records the core holding the line Modified, and a **two-level (node,
  core) directory** records all cores with a valid copy.  Writes
  invalidate remote copies (upgrade or request-for-ownership),
  remote-owned reads are classified as cache-to-cache coherence misses —
  precisely the MMULT "coherency miss" effect the paper discusses in
  §6.1.2.

Sharer directory layout (see :mod:`repro.sim.capability` for the limits):
cores are grouped into *directory nodes* of 64 (one ``uint64`` word
each); per line the directory keeps one core-mask word per node
(``sharers``, shape ``(nwords, nlines)``) plus a compact *node-presence*
word (``presence``, one bit per node with any sharer).  Machines of
≤64 cores need a single word, and every coherence decision then runs on
exactly one mask array — the flat-bitmask hot path this model has always
had.  Wider machines (up to 64 nodes × 64 cores) consult the presence
word first, so sharer-set union, upgrade detection and invalidation
sweeps stay vectorised numpy ops that only touch nodes that actually
hold copies.

Cost: three routes, one protocol.  ``_sweep`` (vectorised NumPy per
declared range) is the reference, and builds only the masks its lines
need: a sweep that hits throughout stops after the residency test and
restamps its two rows, owner and L2 masks exist only for misses, and
fills that form one leading run are written as a ramp rather than a
cumulative sum.  That is about five NumPy calls for an all-hit sweep on
a single issuer and ten to thirty elsewhere, which cost about the
same whatever the length: 3–8 µs a sweep on a single issuer and 9–24 µs
on 27 cores (2 vCPUs, ``tools/sweep_routes.py``).  ``_sweep_lines`` is
its scalar twin on Python ints for every sweep of at most
:data:`SHORT_SWEEP` lines (:data:`SHORT_SWEEP_SINGLE` on a single
issuer), dense or strided: on the short, coherence-heavy sweeps
fine-grained DThreads make — 88 % of ``fine_grain``'s sweeps touch one
line, and QSORT and FFT hand their arrays from kernel to kernel a few
lines at a time — those fixed calls were the whole bill.  A multi-line
write there invalidates remote copies in one batch, ``_sweep``'s own
(``_invalidate``), so its cost does not grow with the sharer count (see
``SHORT_SWEEP`` for where the cuts sit).  ``_resweep`` prices a
*re-stream* — a core sweeping exactly the dense range it swept last,
MMULT streaming all of B once per row chunk — in O(1): after a dense
sweep whose fills form one leading run, a row's timestamps over
``[start, stop)`` are ``base + min(i + 1, k)``, a monotone ramp, so the
next sweep's misses are a prefix whose length is integer arithmetic on
``(base, k)`` (``_ramp_below``) and the row it leaves is another ramp.
Such rows are kept as *pending ramps* beside the arrays
(``_RegionState.ramp1``/``ramp2``) and written out (*settled*, through
``_write_ramp``, the one writer of that formula) only when something
else needs the row.  That is 2,611 of the 22,817 sweeps of a
``paper_grid`` repetition and 96 % of its line visits.  The test suite
holds the shipped model, and the model with every sweep sent through
``_sweep``, to ``tests/reference_memory.py`` after every op: a reference
written from docs/simulation.md on Python ints that shares no code with
this module (``tests/test_fastcache_differential.py``).

Settle rules — a pending ramp exists only while nothing has looked at or
changed what it stands for: ``_sweep`` and ``_sweep_lines`` settle the
rows they read (the core's L1 row, its group's L2 row) on entry, and the
*whole region* before a write (they read other cores' rows for holes and
clear their sharer bits) and before an owner downgrade (they stamp the
owner's L2 row).  A read by another core never settles your L1 ramp
(six kernels re-streaming B would ping-pong forever), so on a multi-core
system a ramp's existence is the proof that every line of its range
still carries the core's sharer bit and has no remote owner — the only
other input of the read path — and ``_resweep`` serves reads with no
invalidation holes pending; a single issuer has no coherence to track
and takes it for reads and writes alike.

Latency constants are identical to the exact model, and the test suite
cross-validates the two models' hit/miss breakdowns on the workload access
patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.sim.accesses import AccessSummary, RegionSpace, _RangeOp
from repro.sim.cache import CacheConfig, CacheStats, MemoryConfig
from repro.sim.capability import CORES_PER_NODE, check_cores

__all__ = ["FastMemorySystem"]

#: The longest sweep priced line by line on Python ints (``_sweep_lines``):
#: ``SHORT_SWEEP`` lines on a multi-core system, ``SHORT_SWEEP_SINGLE`` on
#: a single issuer (no directory to keep).  Longer ones go to NumPy
#: (``_sweep``), whose calls cost about the same whatever the length.
#: A multi-line write's invalidations run as ``_sweep``'s own batch, so a
#: write over lines every core holds costs both routes the same extra.
#: Measured on 2 vCPUs with ``tools/sweep_routes.py`` (table in
#: docs/simulation.md), the routes break even near 20 lines on ordinary
#: traffic, single-issuer and multi-core alike, and near 6 and 10 on
#: writes over lines every issuer holds (all-hit on one issuer).  The cuts
#: were set when ``_sweep`` built every mask (crossovers near 20/16 and
#: 40); moving them to 16, 20 or 24 multi-core or 8 single-issuer left
#: ``fine_grain``'s memory-model time where it was (133–136 ms a
#: repetition), so they stay: up to each cut the route taken costs at
#: most 1.4x the other on ordinary traffic, 1.8x (about 2 µs) on one
#: issuer's writes over resident lines and 1.5x (about 10 µs at 32 lines)
#: on writes over lines 27 cores hold.
SHORT_SWEEP = 32
SHORT_SWEEP_SINGLE = 16

#: All 64 bits of one directory word.
_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class _RegionState:
    """Per-region coherence/residency arrays (one entry per cache line)."""

    l1_last: np.ndarray  # (ncores, nlines) int64 fill time, 0 = never
    l2_last: np.ndarray  # (ngroups, nlines) int64 fill time, 0 = never
    owner: np.ndarray  # (nlines,) int16, -1 = no modified owner
    sharers: np.ndarray  # (nwords, nlines) uint64 per-node core masks
    presence: np.ndarray  # (nlines,) uint64 node-presence word
    # Pending ramps, ``row -> (start, stop, base, k)``: the row's timestamps
    # over [start, stop) are ``base + min(i + 1, k)``, whatever the array
    # says, until settling writes them out.
    ramp1: dict[int, tuple] = field(default_factory=dict)  # by L1 row (core)
    ramp2: dict[int, tuple] = field(default_factory=dict)  # by L2 row (group)
    # core -> (start, stop) of its last dense multi-line sweep here
    last_span: dict[int, tuple] = field(default_factory=dict)


def _ramp_below(base: int, k: int, n: int, thr: int) -> int:
    """How many of the *n* timestamps ``base + min(i + 1, k)`` lie below
    *thr* — a prefix, the ramp being monotone."""
    if base + k < thr:
        return n
    return max(0, thr - base - 1)  # below k, so below n


class FastMemorySystem:
    """Drop-in counterpart of :class:`~repro.sim.cache.CoherentMemorySystem`.

    Exposes the same ``run_op`` / ``run_summary`` / ``stats`` surface so the
    runtime drivers can switch between exact and fast models with a flag.
    """

    def __init__(
        self,
        ncores: int,
        l1: CacheConfig,
        l2: CacheConfig,
        mem: MemoryConfig,
        regions: RegionSpace,
        l2_groups: list[int] | None = None,
        single_issuer: bool = False,
        directory_words: Optional[int] = None,
    ) -> None:
        check_cores(ncores, what="FastMemorySystem")
        self.ncores = ncores
        # Directory nodes: 64-core groups, one uint64 core mask each.
        # *directory_words* forces a wider directory than the core count
        # needs — the cross-validation tests use it to run the multi-word
        # code paths on small machines and pin them bit-identical to the
        # single-word (flat bitmask) fast path.
        nwords = -(-ncores // CORES_PER_NODE)
        if directory_words is not None:
            if directory_words < nwords:
                raise ValueError(
                    f"directory_words={directory_words} below the "
                    f"{nwords} words {ncores} cores need"
                )
            nwords = directory_words
        self._nwords = nwords
        # Declared at construction by the sequential baseline: with one
        # issuing core the sharer directory and owner array are provably
        # inert (nothing to invalidate or downgrade), so _sweep may skip
        # them.  Guarded: a second issuing core raises rather than
        # mis-modelling.
        self._single_issuer = single_issuer or ncores == 1
        self._issuer: int | None = None
        self._short = SHORT_SWEEP_SINGLE if self._single_issuer else SHORT_SWEEP
        self.l1cfg = l1
        self.l2cfg = l2
        self.mem = mem
        self.line_size = l1.line_size
        self.regions = regions
        if l2_groups is None:
            l2_groups = list(range(ncores))
        self.l2_groups = l2_groups
        self.ngroups = max(l2_groups) + 1

        self.l1_capacity = l1.num_lines
        self.l2_capacity = l2.size // self.line_size

        # Logical LRU clocks start at 1: timestamp 0 means "never filled",
        # so fresh residency arrays are plain zero pages (see
        # _new_region_state) and only the rows of issuing cores get written.
        self._clock = np.ones(ncores, dtype=np.int64)
        self._l2_clock = np.ones(self.ngroups, dtype=np.int64)
        # Freed-by-invalidation L1 slots per core (see _sweep).
        self._holes = [0] * ncores
        # Per-core coherence masks, hoisted out of the per-sweep hot path
        # (uint64 construction is surprisingly costly in a loop).  A
        # core's bit lives in the word of its directory node; its "other
        # cores of my node" mask covers only cores that exist there.
        self._word_of = [c // CORES_PER_NODE for c in range(ncores)]
        self._corebit = [np.uint64(1 << (c % CORES_PER_NODE)) for c in range(ncores)]
        self._corebit_arr = np.asarray(self._corebit, dtype=np.uint64)
        self._othermask = []
        for c in range(ncores):
            w = self._word_of[c]
            in_word = min(CORES_PER_NODE, ncores - w * CORES_PER_NODE)
            word_mask = (1 << in_word) - 1
            self._othermask.append(np.uint64(word_mask ^ (1 << (c % CORES_PER_NODE))))
        self._nodebit = [np.uint64(1 << w) for w in range(nwords)]
        self._othernodes = [
            np.uint64(((1 << nwords) - 1) ^ (1 << w)) for w in range(nwords)
        ]
        # Per core, the same masks as Python ints for the scalar
        # _sweep_lines: (word, core bit, other cores of my node, other nodes).
        self._masks_int = [
            (w, int(self._corebit[c]), int(self._othermask[c]),
             int(self._othernodes[w]))
            for c, w in enumerate(self._word_of)
        ]
        self._group_of = np.asarray(self.l2_groups, dtype=np.int64)
        # _sweep_lines' price of each outcome, read in one unpacking: an L1
        # read/write hit, an upgrade's extra, a coherence miss, an L2 hit,
        # a DRAM run leader and a DRAM burst line (the sums _sweep forms).
        l1r = l1.read_latency
        self._line_costs = (
            l1r, l1.write_latency, mem.upgrade_latency,
            mem.cache_to_cache_latency + l1r, l1r + l2.read_latency,
            l1r + l2.read_latency + mem.dram_latency,
            l1r + mem.dram_burst_latency,
        )
        # Reusable 1..k fill-count ramp for the single-core scatter path,
        # and a reusable 0..n-1 line-index ramp for downgrade scatters.
        self._iota = np.arange(1, 1025, dtype=np.int64)
        self._line_iota = np.arange(1024, dtype=np.int64)
        self._state: dict[str, _RegionState] = {}
        for reg in regions:
            self._state[reg.name] = self._new_region_state(reg.lines(self.line_size))
        self.stats = [CacheStats() for _ in range(ncores)]

    # -- helpers -----------------------------------------------------------
    def _new_region_state(self, n: int) -> _RegionState:
        return _RegionState(
            l1_last=np.zeros((self.ncores, n), dtype=np.int64),
            l2_last=np.zeros((self.ngroups, n), dtype=np.int64),
            owner=np.full(n, -1, dtype=np.int16),
            sharers=np.zeros((self._nwords, n), dtype=np.uint64),
            presence=np.zeros(n, dtype=np.uint64),
        )

    def _region_state(self, name: str) -> _RegionState:
        st = self._state.get(name)
        if st is None:
            # Region declared after construction: lazily allocate.
            reg = self.regions.get(name)
            st = self._new_region_state(reg.lines(self.line_size))
            self._state[name] = st
        return st

    def _claim_issuer(self, core: int) -> None:
        """First traffic on a ``single_issuer`` system names its one issuing
        core; traffic from any other core raises rather than mis-modelling."""
        if self._issuer is not None:
            raise RuntimeError(
                "memory system declared single_issuer but saw traffic "
                f"from cores {self._issuer} and {core}"
            )
        self._issuer = core

    def _lines_of(self, sel) -> np.ndarray:
        """Line indices selected by *sel* (cached ramp for dense slices)."""
        if isinstance(sel, slice):
            if self._line_iota.size < sel.stop:
                self._line_iota = np.arange(
                    max(sel.stop, 2 * self._line_iota.size), dtype=np.int64
                )
            return self._line_iota[sel]
        return sel

    def _write_ramp(self, dst: np.ndarray, k: int, base) -> None:
        """``dst[i] = base + min(i + 1, k)``: the fill timestamps a sweep
        leaves when its misses are one leading run of *k* (counts 1..k,
        then a flat k for the resident tail).  The one writer of that
        formula — ``_sweep`` and settling a pending ramp both land here."""
        if k:
            if self._iota.size < k:
                self._iota = np.arange(
                    1, max(k, 2 * self._iota.size) + 1, dtype=np.int64
                )
            np.add(self._iota[:k], base, out=dst[:k])
        if k < dst.size:
            dst[k:] = base + k

    def _fill(self, dst: np.ndarray, fills: Optional[np.ndarray], k: int,
              base: int, used: int = 0) -> bool:
        """Stamp *dst* (a row's view or gathered copy) after a sweep whose *k*
        fills are the set entries of *fills* (None: every line):
        ``base + max(cumsum(fills) - used, 0)``, the first *used* fills
        refilling invalidation holes.  Written through ``_write_ramp`` when
        the fills form one leading run (the streaming shape: any
        still-resident tail of the previous pass hits at the end), else as
        a cumulative sum, in place either way.  Returns whether they did."""
        leading = k == dst.size or bool(fills[:k].all())
        if leading:
            self._write_ramp(dst, k, base - used)
            if used:
                dst[:used] = base
        else:
            np.cumsum(fills, dtype=np.int64, out=dst)
            if used:
                dst -= used
                np.maximum(dst, 0, out=dst)
            dst += base
        return leading

    def _settle_row(self, arr: np.ndarray, ramps: dict, row: int) -> None:
        """Write *row*'s pending ramp, if any, into *arr* and drop it."""
        ramp = ramps.pop(row, None)
        if ramp is not None:
            start, stop, base, k = ramp
            self._write_ramp(arr[row, start:stop], k, base)

    def _write_ramps(self, rs: _RegionState, l1: np.ndarray, l2: np.ndarray) -> None:
        for arr, ramps in ((l1, rs.ramp1), (l2, rs.ramp2)):
            for row, (start, stop, base, k) in ramps.items():
                self._write_ramp(arr[row, start:stop], k, base)

    def _settle(self, rs: _RegionState) -> None:
        """Settle every row of the region."""
        self._write_ramps(rs, rs.l1_last, rs.l2_last)
        rs.ramp1.clear()
        rs.ramp2.clear()

    def _settled(self, region: str) -> tuple[np.ndarray, np.ndarray]:
        """``(l1_last, l2_last)`` of *region* with every pending ramp
        applied, on copies: looking does not settle, so a test may compare
        state after every op without destroying the ramps it exercises."""
        rs = self._region_state(region)
        l1, l2 = rs.l1_last.copy(), rs.l2_last.copy()
        self._write_ramps(rs, l1, l2)
        return l1, l2

    def _absorb_holes(self, rs: _RegionState, sel, masked: np.ndarray,
                      word: int) -> None:
        """Credit invalidation holes to every core of directory node *word*
        whose set bits appear in *masked* (per-line core masks of copies
        being invalidated): a still-resident invalidated copy frees an L1
        slot there.  One sharer (the overwhelmingly common case — a single
        producer) takes a scalar path; several compare the node's rows at
        once, one (cores in node, nlines) residency test masked by the
        sharer bits.  Reads other cores' L1 rows straight from the arrays:
        the writing sweep has settled the region."""
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
        top = min(base + CORES_PER_NODE, self.ncores)
        thr = np.maximum(1, self._clock[base:top] - (cap - 1))
        held = (masked & self._corebit_arr[base:top, None]) != 0
        resident = held & (rs.l1_last[base:top, sel] >= thr[:, None])
        for i, count in enumerate(np.count_nonzero(resident, axis=1).tolist()):
            if count:
                self._holes[base + i] += count

    def _invalidate(self, rs: _RegionState, sel, core: int,
                    others: np.ndarray) -> None:
        """A write by *core* over *sel*, whose sharer words in *core*'s
        directory node, less *core*'s own bit, are *others*: invalidate
        every remote copy and make *core* the lines' one sharer and owner.

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
            self._absorb_holes(rs, sel, others, 0)
        else:
            pres_union = int(np.bitwise_or.reduce(rs.presence[sel]))
            while pres_union:
                w2 = (pres_union & -pres_union).bit_length() - 1
                pres_union &= pres_union - 1
                if w2 == word:
                    self._absorb_holes(rs, sel, others, w2)
                else:
                    self._absorb_holes(rs, sel, rs.sharers[w2, sel], w2)
                    rs.sharers[w2, sel] = 0
            rs.presence[sel] = self._nodebit[word]
        rs.sharers[word, sel] = self._corebit[core]
        rs.owner[sel] = core

    # -- main entry points ---------------------------------------------------
    def run_op(self, core: int, op: _RangeOp) -> int:
        total = 0
        lines = op.line_indices(self.line_size)
        nlines = len(lines)
        if nlines == 0:
            return 0
        dense = op.stride <= self.line_size
        fits_l1 = nlines <= self.l1_capacity
        for rep in range(op.reps):
            if rep > 0 and fits_l1:
                # Whole footprint resident after the first sweep: the
                # remaining sweeps are pure L1 hits (unless invalidated,
                # which cannot happen within one DThread's execution).
                remaining = op.reps - rep
                lat = (
                    self.l1cfg.write_latency if op.is_write else self.l1cfg.read_latency
                )
                st = self.stats[core]
                st.accesses += nlines * remaining
                st.l1_hits += nlines * remaining
                st.cycles += lat * nlines * remaining
                total += lat * nlines * remaining
                break
            if nlines == 1 or nlines <= self._short and type(lines) is list:
                # One line, or a short strided list, cannot be a re-stream
                # (only a dense range can).
                total += self._sweep_lines(
                    core, op.region.name, lines, op.is_write, dense
                )
            else:
                total += self._sweep_range(
                    core, op.region.name, lines, op.is_write, dense
                )
        return total

    def run_summary(self, core: int, summary: AccessSummary) -> int:
        total = 0
        for op in summary:
            total += self.run_op(core, op)
        return total

    # -- routing a multi-line sweep ---------------------------------------------
    def _sweep_range(
        self, core: int, region: str, lines: range | list[int],
        is_write: bool, dense: bool,
    ) -> int:
        """A multi-line sweep (a strided list past the short-sweep cut,
        or a dense range): ``_resweep`` when this core re-streams the
        range its pending ramps describe, else ``_sweep_lines`` (up to the
        cut) or ``_sweep``
        — after which, if the range repeats the core's previous one here (a
        detected re-stream) and both rows came out as ramps, they are noted
        so the next repeat is O(1)."""
        n = len(lines)
        if not isinstance(lines, range):
            sel = np.asarray(lines, dtype=np.int64)
            return self._sweep(core, region, sel, n, is_write, dense)
        rs = self._region_state(region)
        group = self.l2_groups[core]
        span = (lines.start, lines.stop)
        # Multi-core: reads only (a write changes other cores' state) and
        # no invalidation holes pending (fills would consume them first).
        routable = self._single_issuer or not (is_write or self._holes[core])
        if routable:
            r1, r2 = rs.ramp1.get(core), rs.ramp2.get(group)
            if r1 and r2 and r1[:2] == span == r2[:2]:
                return self._resweep(core, group, rs, r1, r2, is_write)
        restream = routable and rs.last_span.get(core) == span
        if restream:
            clock = self._clock.item(core)
            l2_clock = self._l2_clock.item(group)
        if n <= self._short:
            cycles = self._sweep_lines(core, region, lines, is_write, dense)
        else:
            # Dense sweeps index the per-line arrays with a slice: gathers
            # become views and scatters contiguous writes.
            cycles = self._sweep(core, region, slice(*span), n, is_write, dense)
        rs.last_span[core] = span
        if restream:
            # base + cumsum(fills) reaches base + k at index k - 1 exactly
            # when the k fills are the first k lines: one leading run.
            start = lines.start
            k1 = self._clock.item(core) - clock
            k2 = self._l2_clock.item(group) - l2_clock
            if (
                not k1 or rs.l1_last.item(core, start + k1 - 1) == clock + k1
            ) and (
                not k2 or rs.l2_last.item(group, start + k2 - 1) == l2_clock + k2
            ):
                rs.ramp1[core] = span + (clock, k1)
                rs.ramp2[group] = span + (l2_clock, k2)
        return cycles

    def _resweep(
        self, core: int, group: int, rs: _RegionState, r1: tuple, r2: tuple,
        is_write: bool,
    ) -> int:
        """:meth:`_sweep` of the dense range whose L1 and L2 rows are the
        pending ramps *r1* and *r2*, in O(1).

        Both rows are monotone, so L1 misses are a prefix and so are the
        lines absent from the L2: DRAM misses are the shorter prefix (one
        streaming run), L2 hits the rest of the longer, and both rows come
        out as ramps again.  Must return the same cycles and leave the same
        settled state as ``_sweep``: ``tests/test_fastcache_restream.py``
        holds both to the reference after every op.
        """
        start, stop, base1, k1 = r1
        base2, k2 = r2[2:]
        n = stop - start
        clock = self._clock.item(core)
        l2_clock = self._l2_clock.item(group)
        n_miss = _ramp_below(
            base1, k1, n, max(1, clock - self.l1_capacity + 1)
        )
        n_mem = min(n_miss, _ramp_below(
            base2, k2, n, max(1, l2_clock - self.l2_capacity + 1)
        ))
        n_l1 = n - n_miss
        n_l2 = n_miss - n_mem
        l1r, l2r = self.l1cfg.read_latency, self.l2cfg.read_latency
        cycles = n_l1 * (self.l1cfg.write_latency if is_write else l1r)
        cycles += n_l2 * (l1r + l2r)
        if n_mem:
            cycles += l1r + l2r + self.mem.dram_latency
            cycles += (n_mem - 1) * (l1r + self.mem.dram_burst_latency)
        rs.ramp1[core] = (start, stop, clock, n_miss)
        rs.ramp2[group] = (start, stop, l2_clock, n_mem)
        self._clock[core] = clock + n_miss
        self._l2_clock[group] = l2_clock + n_mem
        st = self.stats[core]
        st.accesses += n
        st.l1_hits += n_l1
        st.l2_hits += n_l2
        st.mem_misses += n_mem
        st.cycles += cycles
        return cycles

    # -- the vectorised protocol ----------------------------------------------
    def _sweep(
        self, core: int, region: str, sel: slice | np.ndarray, n: int,
        is_write: bool, dense: bool = True,
    ) -> int:
        rs = self._region_state(region)
        group = self.l2_groups[core]
        single = self._single_issuer
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

        clock = self._clock.item(core)
        l2_clock = self._l2_clock.item(group)
        # Residency is one comparison per level: ``last >= 1`` (ever
        # filled) ``and clock - last < capacity`` is, for integer clocks,
        # exactly ``last >= max(1, clock - capacity + 1)``.  Masks are
        # built only for what a sweep's lines need: ``miss`` is None when
        # every line misses, and a sweep that hits throughout builds no
        # miss, owner or L2 mask at all.
        last = rs.l1_last[core, sel]  # a view on a dense sweep
        miss = last < max(1, clock - self.l1_capacity + 1)
        n_miss = int(np.count_nonzero(miss))
        # One core: nothing invalidates, so "ever filled and still recent"
        # is the whole residency story — the sharer directory and owner
        # array are provably inert (no remote copies to track, no remote
        # owner to downgrade) and never touched.  Otherwise a recent copy
        # is valid only while the core's sharer bit is set.
        if not single:
            word = self._word_of[core]
            sh = rs.sharers[word, sel]
            if n_miss < n:
                in_l1 = (sh & self._corebit[core]) != 0
                in_l1 &= ~miss
                n_miss = n - int(np.count_nonzero(in_l1))
                if n_miss:
                    miss = ~in_l1
        if n_miss == n:
            miss = None
        n_l1 = n - n_miss

        n_coh = n_mem = n_upg = 0
        remote_owned = None
        if n_miss:
            if not single:
                # Remote modified owner → cache-to-cache transfer, tested
                # only when a missed line has an owner at all.
                own = rs.owner[sel]
                owned = own >= 0
                if miss is not None:
                    owned &= miss
                if owned.any():
                    owned &= own != core  # not a line this core owns, evicted
                    n_coh = int(np.count_nonzero(owned))
                    if n_coh:
                        remote_owned = owned
            l2 = rs.l2_last[group, sel]
            mem_miss = l2 < max(1, l2_clock - self.l2_capacity + 1)
            if miss is not None:
                mem_miss &= miss
            if remote_owned is not None:
                mem_miss &= ~remote_owned
            n_mem = int(np.count_nonzero(mem_miss))
        n_l2 = n_miss - n_coh - n_mem

        if not single:
            if is_write:
                others = sh & self._othermask[core]
                if n_l1:
                    if self._nwords == 1:
                        remote = others
                    else:
                        # Two-level test: other sharers exist in my node's
                        # word, or the presence word names any other node.
                        remote = others | (rs.presence[sel] & self._othernodes[word])
                    if n_miss:
                        remote = (remote != 0) & in_l1
                    n_upg = int(np.count_nonzero(remote))
                # All written lines: invalidate remote copies, become owner.
                self._invalidate(rs, sel, core, others)
            elif n_miss:
                # Reads: remote-owned lines downgrade (owner cleared, shared).
                if n_coh:
                    # The owners' L2 rows are stamped below: settle first.
                    self._settle(rs)
                    downgrade = self._lines_of(sel)[remote_owned]
                    # The previous owner's copy stays valid (now SHARED);
                    # the line also lands in the owner's L2 via writeback,
                    # stamped with that L2's clock, all in one scatter (a
                    # line has one owner).  ``own`` aliases ``rs.owner`` on
                    # dense sweeps, so the owner groups must be read before
                    # the owner is cleared.
                    owner_groups = self._group_of[own[remote_owned]]
                    rs.owner[downgrade] = -1
                    rs.l2_last[owner_groups, downgrade] = self._l2_clock[owner_groups]
                # (A line that hits already carries both bits.)
                rs.sharers[word, sel] |= self._corebit[core]
                if self._nwords > 1:
                    rs.presence[sel] |= self._nodebit[word]

        read_hit, write_hit, upgrade, coh, l2_hit, lead, burst = self._line_costs
        cycles = n_l1 * (write_hit if is_write else read_hit) + n_upg * upgrade

        # Residency updates.  The logical clocks advance only on *fills*
        # (misses): a hit re-references a resident line without displacing
        # anything, so time-distance then tracks true LRU stack distance
        # for the chunked/streaming patterns the workloads produce.  Fills
        # first consume any invalidation holes (freed slots) before they
        # start displacing LRU victims.
        if not n_miss:
            rs.l1_last[core, sel] = clock
            rs.l2_last[group, sel] = l2_clock
        else:
            holes = self._holes[core]
            used = min(holes, n_miss)
            if used:
                self._holes[core] = holes - used
            self._fill(last, miss, n_miss, clock, used)
            self._clock[core] = clock + n_miss - used
            k2 = n_mem + n_coh
            l2_fills = mem_miss if remote_owned is None else mem_miss | remote_owned
            leading = self._fill(l2, l2_fills, k2, l2_clock)
            self._l2_clock[group] = l2_clock + k2
            if not isinstance(sel, slice):  # gathered copies: scatter back
                rs.l1_last[core, sel] = last
                rs.l2_last[group, sel] = l2
            cycles += n_coh * coh + n_l2 * l2_hit
            # DRAM misses: dense sweeps stream — within each consecutive
            # run of missing lines only the first pays full latency, the
            # rest the pipelined burst latency (open-page / prefetch
            # overlap).  L2 fills that are the DRAM misses alone, in one
            # leading run, are one such run.
            if n_mem:
                if not dense:
                    leaders = n_mem
                elif leading and not n_coh:
                    leaders = 1
                else:
                    mm = mem_miss
                    leaders = int(mm[0]) + int(np.count_nonzero(mm[1:] & ~mm[:-1]))
                cycles += leaders * lead + (n_mem - leaders) * burst

        st = self.stats[core]
        st.accesses += n
        st.l1_hits += n_l1
        st.l2_hits += n_l2
        st.mem_misses += n_mem
        st.coherence_misses += n_coh
        st.upgrades += n_upg
        st.cycles += cycles
        return cycles

    # -- the same protocol step, line by line, on Python ints --------------------
    def _sweep_lines(
        self, core: int, region: str, lines: range | list[int],
        is_write: bool, dense: bool,
    ) -> int:
        """:meth:`_sweep` for a sweep of at most :data:`SHORT_SWEEP` lines
        (:data:`SHORT_SWEEP_SINGLE` on a single issuer; a dense ``range``
        or a strided sorted list), one line at a time.

        The sweep-level semantics are ``_sweep``'s: residency thresholds
        are fixed at entry; the i-th line's L1 stamp is ``clock + max(fills
        so far - holes, 0)`` and its L2 stamp ``l2_clock + L2 fills so
        far``; clocks, holes and stats are written once at the end.  A write reads the directory line by line and
        invalidates after the loop: a one-line write checks each remote
        copy on ints; a longer one runs ``_invalidate``, whose NumPy calls
        cost about the same for one sharer or 63, where per-copy checks
        grow with lines times sharers.  Must leave the same state and
        return the same cycles as ``_sweep`` on the same lines:
        ``tests/test_fastcache.py`` holds both to the reference after
        every op.
        """
        rs = self._state.get(region) or self._region_state(region)
        group = self.l2_groups[core]
        single = self._single_issuer
        if single and core != self._issuer:
            self._claim_issuer(core)
        if rs.ramp1 or rs.ramp2:
            # What _sweep settles: every row before a write, its own rows
            # before a read (a downgrade below settles the rest).
            if is_write:
                self._settle(rs)
            else:
                self._settle_row(rs.l1_last, rs.ramp1, core)
                self._settle_row(rs.l2_last, rs.ramp2, group)

        clock = self._clock.item(core)
        l2_clock = self._l2_clock.item(group)
        thr1 = max(1, clock - self.l1_capacity + 1)
        thr2 = max(1, l2_clock - self.l2_capacity + 1)
        l1_last, l2_last = rs.l1_last, rs.l2_last
        holes = self._holes[core]
        fills = l2_fills = n_l1 = n_l2 = n_mem = n_coh = n_upg = leaders = 0
        remote = prev_mem = False
        if not single:
            nw = self._nwords
            word, mybit, othermask, othernodes = self._masks_int[core]
            sharers, owner, presence = rs.sharers, rs.owner, rs.presence

        for line in lines:
            if single:
                hit = l1_last.item(core, line) >= thr1
            else:
                sh = sharers.item(word, line)
                hit = (sh & mybit) != 0 and l1_last.item(core, line) >= thr1
                own = owner.item(line)
                # Remote modified owner → cache-to-cache transfer.
                remote = not hit and own >= 0 and own != core
                if is_write:
                    # One word keeps no presence array: node 0 is the only node.
                    pres = presence.item(line) if nw > 1 else 1
                    others = sh & othermask
                    if hit and (others or pres & othernodes):
                        n_upg += 1
                else:
                    if remote:
                        # Downgrade: the owner's copy stays valid (SHARED)
                        # and the line lands in its L2 via write-back, at
                        # that L2's clock on entry.  Its row is stamped
                        # here: settle first.
                        if rs.ramp1 or rs.ramp2:
                            self._settle(rs)
                        owner[line] = -1
                        g = self.l2_groups[own]
                        l2_last[g, line] = self._l2_clock.item(g)
                    if not sh & mybit:
                        # (A set core bit implies its node's presence bit.)
                        sharers[word, line] = sh | mybit
                        if nw > 1:
                            presence[line] = presence.item(line) | 1 << word
            mem = False
            if hit:
                n_l1 += 1
            else:
                fills += 1
                if remote:
                    n_coh += 1
                    l2_fills += 1  # the write-back fill lands here too
                elif l2_last.item(group, line) >= thr2:
                    n_l2 += 1
                else:
                    n_mem += 1
                    l2_fills += 1
                    mem = True
                    # A dense sweep's DRAM misses stream: only the first of
                    # each run of consecutive ones pays full latency.
                    if not (dense and prev_mem):
                        leaders += 1
            prev_mem = mem
            # Residency: fills first consume this core's invalidation
            # holes, then advance the LRU clock (see _sweep).
            l1_last[core, line] = clock + fills - holes if fills > holes else clock
            l2_last[group, line] = l2_clock + l2_fills

        if is_write and not single:
            # The loop read the directory as the write found it; now
            # invalidate what it found.
            if len(lines) > 1:
                # One batch, the vector route's own, whatever the sharers.
                if type(lines) is range:
                    sel = slice(lines.start, lines.stop)
                else:
                    sel = np.asarray(lines, dtype=np.int64)
                self._invalidate(
                    rs, sel, core, sharers[word, sel] & self._othermask[core]
                )
            else:
                # One line (``line``, ``others`` and ``pres`` are from the
                # loop's one pass): one hole check per remote copy, cheaper
                # than the batch even with every core sharing.
                while pres:
                    w2 = (pres & -pres).bit_length() - 1
                    pres &= pres - 1
                    masked = others if w2 == word else sharers.item(w2, line)
                    while masked:
                        other = w2 * CORES_PER_NODE + (masked & -masked).bit_length() - 1
                        masked &= masked - 1
                        if l1_last.item(other, line) >= max(
                            1, self._clock.item(other) - self.l1_capacity + 1
                        ):
                            self._holes[other] += 1
                    if w2 != word:
                        sharers[w2, line] = 0
                sharers[word, line] = mybit
                if nw > 1:
                    presence[line] = 1 << word
                owner[line] = core

        read_hit, write_hit, upgrade, coh, l2_hit, lead, burst = self._line_costs
        cycles = n_l1 * (write_hit if is_write else read_hit)
        st = self.stats[core]
        if n_upg:
            cycles += n_upg * upgrade
            st.upgrades += n_upg
        if fills:
            cycles += (
                n_coh * coh + n_l2 * l2_hit + leaders * lead
                + (n_mem - leaders) * burst
            )
            st.l2_hits += n_l2
            st.mem_misses += n_mem
            st.coherence_misses += n_coh
            if fills > holes:
                self._clock[core] = clock + fills - holes
                holes = 0
            else:
                holes -= fills
            self._holes[core] = holes
            if l2_fills:
                self._l2_clock[group] = l2_clock + l2_fills
        st.accesses += n_l1 + fills
        st.l1_hits += n_l1
        st.cycles += cycles
        return cycles

    # -- aggregate ------------------------------------------------------------
    def total_stats(self) -> CacheStats:
        agg = CacheStats()
        for s in self.stats:
            agg.merge(s)
        return agg
