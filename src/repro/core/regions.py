"""Region algebra: byte intervals, line indices, footprint tables.

DThreads declare *what* they touch as strided sweeps over named regions
(:mod:`repro.sim.accesses`); two consumers of those declarations need the
same geometric primitives:

* the TFluxDist owner map (:mod:`repro.net.ownermap`) intersects sweeps
  at **cache-line** granularity to decide which lines must be forwarded
  between nodes, and keeps vectorised per-line state;
* the dependence checkers (:mod:`repro.core.deps`, :mod:`repro.check`)
  intersect footprints at **byte** granularity to decide which DThread
  instances conflict — lines would manufacture false conflicts between
  neighbours sharing a line, and false conflicts inside one template are
  fatal (self-arcs are illegal).

Both views of one sweep live here.  A sweep's lines become a line-index
vector (:func:`line_index`, exactly the representation the owner map
always used) or half-open byte intervals (:func:`sweep_intervals`, for
many sweeps at once).  A program's footprints are one columnar
:class:`FootprintTable` — instance, region, side, ``lo``, ``hi`` — put in
canonical form (per instance, region and side: sorted, disjoint, merged)
by one lexsort and one per-group running max.  Whole-table passes sit on
it: :func:`grouped_difference` (observed minus declared, every group at
once), :meth:`FootprintTable.overlap` (exact set overlap for many group
pairs) and :func:`conflict_sweep`, the one last-writer/reader kernel
both checkers run over a region's access stream on a
coordinate-compressed :class:`SegmentSpace`.  :func:`merge_intervals`
and :func:`intervals_intersection` are the one-set forms the race
checker uses to name a conflict's bytes.  :class:`LineTable` is the
per-region, per-line vector state the owner map keeps.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Tuple, Union

import numpy as np

from repro.sim.accesses import Region, _RangeOp

__all__ = [
    "line_index",
    "concat_ranges",
    "sweep_intervals",
    "merge_intervals",
    "intervals_intersection",
    "unique_rows",
    "FootprintTable",
    "grouped_difference",
    "SegmentSpace",
    "Conflicts",
    "conflict_sweep",
    "LineTable",
    "EMPTY_INTERVALS",
]

#: Canonical empty interval set (shape ``(0, 2)``).
EMPTY_INTERVALS = np.empty((0, 2), dtype=np.int64)
_EMPTY = np.empty(0, dtype=np.int64)


# -- line view (the owner map's granularity) -----------------------------------
def line_index(lines: Union[range, List[int]]) -> Union[slice, np.ndarray]:
    """Vector index selecting the lines of one sweep
    (:meth:`~repro.sim.accesses._RangeOp.line_indices`).

    Dense sweeps (stride <= line size) become a ``slice``; strided sweeps
    an explicit ``np.intp`` index array — both index per-line state
    arrays (:class:`LineTable` rows) directly.
    """
    if isinstance(lines, range):
        return slice(lines.start, lines.stop)
    return np.asarray(lines, dtype=np.intp)


class LineTable:
    """Per-region, per-line vector state (one 1-D array per region).

    The owner map keeps two of these (last-writer id and copy-set mask);
    rows are created eagerly for the regions known at construction and
    lazily for regions declared later (a new array a DThread body adds to
    the environment mid-run).
    """

    __slots__ = ("line_size", "dtype", "fill", "_rows")

    def __init__(self, line_size: int, dtype, fill) -> None:
        if line_size <= 0:
            raise ValueError(f"line size must be positive, got {line_size}")
        self.line_size = line_size
        self.dtype = np.dtype(dtype)
        self.fill = fill
        self._rows: Dict[str, np.ndarray] = {}

    def add(self, region: Region) -> np.ndarray:
        row = np.full(region.lines(self.line_size), self.fill, dtype=self.dtype)
        self._rows[region.name] = row
        return row

    def row(self, region: Region) -> np.ndarray:
        """The region's state vector, created on first use."""
        row = self._rows.get(region.name)
        if row is None:
            row = self.add(region)
        return row

    def __contains__(self, name: str) -> bool:
        return name in self._rows


# -- byte-interval view (the checkers' granularity) ----------------------------
def concat_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``arange(lo[i], hi[i])`` for every *i*, concatenated."""
    n = hi - lo
    if not len(n):
        return _EMPTY
    ends = np.cumsum(n)
    return np.arange(ends[-1]) + np.repeat(lo - (ends - n), n)


def sweep_intervals(
    offset: np.ndarray, count: np.ndarray, stride: np.ndarray, elem_size: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Byte intervals of many strided sweeps at once: ``(sweep, lo, hi)``,
    one row per interval, in sweep order.

    A sweep's ``reps`` is not an argument: repeating a sweep changes its
    cost, not its footprint.  A dense sweep (stride <= elem_size) is one
    interval, a strided one an interval per element (sorted, disjoint)
    and an empty one (count 0) no row at all.
    """
    dense = stride <= elem_size
    nrows = np.where(dense, np.minimum(count, 1), count)
    sweep = np.repeat(np.arange(len(offset)), nrows)
    step = concat_ranges(np.zeros_like(nrows), nrows)
    lo = offset[sweep] + step * stride[sweep]
    end = offset + (count - 1) * stride + elem_size
    hi = np.where(dense[sweep], end[sweep], lo + elem_size[sweep])
    return sweep, lo, hi


def merge_intervals(intervals: np.ndarray) -> np.ndarray:
    """Merge overlapping/touching intervals into canonical disjoint form."""
    iv = np.asarray(intervals, dtype=np.int64).reshape(-1, 2)
    if len(iv) <= 1:
        return iv
    iv = iv[np.argsort(iv[:, 0], kind="stable")]
    running_end = np.maximum.accumulate(iv[:, 1])
    # An interval starts a new group when it begins past every prior end.
    new_group = np.empty(len(iv), dtype=bool)
    new_group[0] = True
    new_group[1:] = iv[1:, 0] > running_end[:-1]
    starts = iv[new_group, 0]
    group_idx = np.flatnonzero(new_group)
    ends = np.maximum.reduceat(running_end, group_idx)
    return np.stack([starts, ends], axis=1)


def intervals_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bytes both *a* and *b* cover, in canonical form.

    Both arguments must be canonical (disjoint, sorted).  Each *a*
    interval meets a contiguous run of *b* intervals — found with two
    bisects — so the cost is the number of overlapping pairs.
    """
    if len(a) == 0 or len(b) == 0:
        return EMPTY_INTERVALS
    first = np.searchsorted(b[:, 1], a[:, 0], side="right")
    last = np.searchsorted(b[:, 0], a[:, 1], side="left")
    i = np.repeat(np.arange(len(a)), last - first)
    j = concat_ranges(first, last)
    return np.stack(
        [np.maximum(a[i, 0], b[j, 0]), np.minimum(a[i, 1], b[j, 1])], axis=1
    )


def unique_rows(*columns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The distinct rows of equal-length integer columns, sorted by the
    first column, then the second, and so on."""
    if not len(columns[0]):
        return columns
    order = np.lexsort(columns[::-1])
    columns = tuple(col[order] for col in columns)
    keep = np.zeros(len(order), dtype=bool)
    keep[0] = True
    for col in columns:
        keep[1:] |= col[1:] != col[:-1]
    return tuple(col[keep] for col in columns)


# -- the footprint table ---------------------------------------------------------
class FootprintTable:
    """Footprints of many DThread instances, one row per byte interval.

    Five equal-length int64 columns: ``inst`` (an instance number the
    builder chose), ``region`` (an index into ``names``), ``write`` (the
    side: 0 read, 1 write) and the half-open bytes ``[lo, hi)``.  Rows of
    one ``(inst, region, write)`` are a *group*.  A raw table keeps
    whatever its builder appended; :meth:`canonical` sorts it by group
    and merges each group's intervals, after which the group index
    (:meth:`find`, :meth:`intervals`, :meth:`overlap`) answers per-group
    questions by bisection.
    """

    __slots__ = ("names", "inst", "region", "write", "lo", "hi", "_groups")

    def __init__(self, names: List[str], inst, region, write, lo, hi) -> None:
        self.names = names
        self.inst = np.asarray(inst, dtype=np.int64)
        self.region = np.asarray(region, dtype=np.int64)
        self.write = np.asarray(write, dtype=np.int64)
        self.lo = np.asarray(lo, dtype=np.int64)
        self.hi = np.asarray(hi, dtype=np.int64)
        self._groups = None

    def __len__(self) -> int:
        return len(self.lo)

    def key(self, inst, region, write):
        """Group key of ``(inst, region, write)``: scalars or arrays."""
        return (inst * len(self.names) + region) * 2 + write

    def _from_keys(self, key: np.ndarray, lo, hi) -> "FootprintTable":
        rest, write = np.divmod(key, 2)
        inst, region = np.divmod(rest, len(self.names))
        return FootprintTable(self.names, inst, region, write, lo, hi)

    def by_region(self) -> List[np.ndarray]:
        """Each region's row numbers, in table order, by region code."""
        order = np.argsort(self.region, kind="stable")
        bounds = np.searchsorted(self.region[order], np.arange(len(self.names) + 1))
        return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def take(self, rows) -> "FootprintTable":
        """The table of the selected rows (a mask or an index)."""
        return FootprintTable(
            self.names, self.inst[rows], self.region[rows], self.write[rows],
            self.lo[rows], self.hi[rows],
        )

    def canonical(self) -> "FootprintTable":
        """Sorted by group, then ``lo``; each group's intervals merged
        (overlapping and touching ones) into disjoint sorted form.

        One lexsort, then one running max of ``hi`` that restarts per
        group: each group's values are shifted past every earlier
        group's, so a single ``maximum.accumulate`` never carries across.
        """
        n = len(self)
        if not n:
            return self
        key = self.key(self.inst, self.region, self.write)
        order = np.lexsort((self.lo, key))
        key, lo, hi = key[order], self.lo[order], self.hi[order]
        first = np.ones(n, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        heads = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        base = lo[heads]
        span = np.maximum.reduceat(hi, heads) - base
        shift = (np.cumsum(span) - span - base)[group]
        reach = np.maximum.accumulate(hi + shift) - shift
        new = first.copy()
        new[1:] |= lo[1:] > reach[:-1]
        starts = np.flatnonzero(new)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:] - 1
        ends[-1] = n - 1
        return self._from_keys(key[starts], lo[starts], reach[ends])

    # -- per-group queries (canonical tables only) ------------------------------
    def groups(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(key, start, stop)`` of every group, in key order."""
        return self._index()[:3]

    def _index(self) -> Tuple[np.ndarray, ...]:
        """The group table, plus each group's *shift*: ``lo + shift`` of
        its rows is one non-decreasing column over the whole table (each
        group's bytes moved past every earlier group's), so one global
        bisection finds a coordinate inside any group."""
        if self._groups is None:
            key = self.key(self.inst, self.region, self.write)
            head = np.ones(len(key), dtype=bool)
            head[1:] = key[1:] != key[:-1]
            start = np.flatnonzero(head)
            stop = np.empty_like(start)
            stop[:-1] = start[1:]
            stop[-1:] = len(key)
            base = self.lo[start]
            span = self.hi[stop - 1] - base
            shift = np.cumsum(span) - span - base
            frame = self.lo + np.repeat(shift, stop - start)
            self._groups = (key[start], start, stop, shift, frame)
        return self._groups

    def find(self, key: np.ndarray) -> np.ndarray:
        """Group number of each key, ``-1`` where no such group exists."""
        keys = self.groups()[0]
        at = np.searchsorted(keys, key)
        found = at < len(keys)
        found[found] = keys[at[found]] == key[found]
        return np.where(found, at, -1)

    def intervals(self, inst: int, region: int, write: int) -> np.ndarray:
        """One group's canonical ``(k, 2)`` intervals (empty if absent)."""
        g = int(self.find(np.array([self.key(inst, region, write)]))[0])
        if g < 0:
            return EMPTY_INTERVALS
        _, start, stop = self.groups()
        rows = slice(start[g], stop[g])
        return np.stack([self.lo[rows], self.hi[rows]], axis=1)

    def overlap(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether groups ``a[i]`` and ``b[i]`` share a byte, for every *i*
        (``-1`` is the empty group).

        Every interval of ``a[i]`` bisects ``b[i]`` for the last interval
        starting before its end — the only one that can reach past its
        start, since a group's ends rise with its starts — all in one
        bisection over the shifted ``lo`` column.
        """
        _, start, stop, shift, frame = self._index()
        hit = np.zeros(len(a), dtype=bool)
        both = np.flatnonzero((a >= 0) & (b >= 0))
        ga, gb = a[both], b[both]
        size = stop[ga] - start[ga]
        rows = concat_ranges(start[ga], stop[ga])
        pair, gb = np.repeat(both, size), np.repeat(gb, size)
        after = np.searchsorted(frame, self.hi[rows] + shift[gb], side="left")
        after = np.clip(after, start[gb], stop[gb])
        some = after > start[gb]
        meets = self.hi[after[some] - 1] > self.lo[rows[some]]
        hit[pair[some][meets]] = True
        return hit


def grouped_difference(a: FootprintTable, b: FootprintTable) -> FootprintTable:
    """The bytes of each group of *a* that the same group of *b* does not
    cover, as one canonical table.

    Both tables must be canonical and share their region coding.  Every
    interval endpoint of both becomes an event; sorted by group and
    coordinate, two running counts say whether *a* and *b* cover the
    stretch after each coordinate, and the stretches *a* covers alone
    are the answer — every group at once.
    """
    na, nb = len(a), len(b)
    ka = a.key(a.inst, a.region, a.write)
    kb = b.key(b.inst, b.region, b.write)
    key = np.concatenate([ka, ka, kb, kb])
    coord = np.concatenate([a.lo, a.hi, b.lo, b.hi])
    in_a = np.zeros(len(key), dtype=np.int64)
    in_a[:na], in_a[na : 2 * na] = 1, -1
    in_b = np.zeros(len(key), dtype=np.int64)
    in_b[2 * na : 2 * na + nb], in_b[2 * na + nb :] = 1, -1
    order = np.lexsort((coord, key))
    key, coord = key[order], coord[order]
    in_a, in_b = np.cumsum(in_a[order]), np.cumsum(in_b[order])
    # The counts after the last event at a coordinate hold until the next
    # coordinate of the group (an uncovered stretch never ends a group).
    last = np.ones(len(key), dtype=bool)
    last[:-1] = (key[1:] != key[:-1]) | (coord[1:] != coord[:-1])
    alone = np.flatnonzero(last & (in_a > 0) & (in_b == 0))
    return a._from_keys(key[alone], coord[alone], coord[alone + 1])


# -- the conflict sweep ----------------------------------------------------------
class SegmentSpace:
    """Coordinate-compressed 1-D space over a fixed boundary set.

    Built from every interval endpoint a region will ever see; segment
    *k* is the stretch between ``bounds[k]`` and ``bounds[k + 1]``, so
    per-segment state is one array position and an interval drawn from
    the same endpoints covers a contiguous run of segments
    (:meth:`segments`).
    """

    __slots__ = ("bounds",)

    def __init__(self, bounds: np.ndarray) -> None:
        self.bounds = np.asarray(bounds, dtype=np.int64)

    @classmethod
    def from_intervals(cls, interval_sets: Iterable[np.ndarray]) -> "SegmentSpace":
        pieces = [np.asarray(iv, dtype=np.int64).ravel() for iv in interval_sets]
        flat = np.concatenate(pieces) if pieces else _EMPTY
        return cls(np.unique(flat))

    def segments(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First and one-past-last segment each interval ``[lo, hi)`` covers."""
        return (
            np.searchsorted(self.bounds, lo, side="left"),
            np.searchsorted(self.bounds, hi, side="left"),
        )


class Conflicts(NamedTuple):
    """What :func:`conflict_sweep` found, one row per access and segment.

    ``writer``/``accessor``: the segment's previous writer and the
    instance accessing it after that write, with whether the access is a
    write (``writes``) and whether no read came between the two
    (``adjacent``).  ``reader``/``next_writer``: an instance that read
    the segment and the instance whose write ended that read's epoch.
    Rows repeat across segments and may pair an instance with itself.
    """

    writer: np.ndarray
    accessor: np.ndarray
    writes: np.ndarray
    adjacent: np.ndarray
    reader: np.ndarray
    next_writer: np.ndarray


def conflict_sweep(
    seq: np.ndarray, inst: np.ndarray, write: np.ndarray,
    lo: np.ndarray, hi: np.ndarray,
) -> Conflicts:
    """The last-writer/reader-set sweep over one region's access stream.

    Each row is one interval of an access: *seq* orders the accesses
    (rows of one access share it and never cover the same byte twice),
    *inst* names the accessing instance and *write* its side.  Every
    row is cut into the segments of the region's :class:`SegmentSpace`;
    sorted by segment, then *seq*, each segment's accesses line up in
    stream order, and two running scans find for every access the
    segment's previous write and for every read the write that follows
    it.  The work is the segments the rows cover, never instances x
    segments.
    """
    space = SegmentSpace.from_intervals((lo, hi))
    first, stop = space.segments(lo, hi)
    row = np.repeat(np.arange(len(lo)), stop - first)
    seg = concat_ranges(first, stop)
    m = len(seg)
    order = np.lexsort((seq[row], seg))
    row, seg = row[order], seg[order]
    who, wr = inst[row], write[row] != 0
    at = np.arange(m)
    head = np.ones(m, dtype=bool)
    head[1:] = seg[1:] != seg[:-1]
    heads = np.flatnonzero(head)
    segno = np.cumsum(head) - 1
    # Previous write of the same segment: the last write position before
    # each entry, kept only if it lies at or after the segment's head.
    prev = np.full(m, -1)
    prev[1:] = np.maximum.accumulate(np.where(wr, at, -1))[:-1]
    has = prev >= heads[segno]
    prev = prev[has]
    # Next write of the same segment: the same scan from the right.
    nxt = np.full(m, m)
    nxt[:-1] = np.minimum.accumulate(np.where(wr, at, m)[::-1])[::-1][1:]
    followed = ~wr & (nxt <= np.append(heads[1:] - 1, m - 1)[segno])
    return Conflicts(
        writer=who[prev],
        accessor=who[has],
        writes=wr[has],
        adjacent=prev == at[has] - 1,
        reader=who[followed],
        next_writer=who[nxt[followed]],
    )
