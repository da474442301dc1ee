"""Region algebra: byte intervals, line indices and overlap queries.

DThreads declare *what* they touch as strided sweeps over named regions
(:mod:`repro.sim.accesses`); two consumers of those declarations need the
same geometric primitives:

* the TFluxDist owner map (:mod:`repro.net.ownermap`) intersects sweeps
  at **cache-line** granularity to decide which lines must be forwarded
  between nodes, and keeps vectorised per-line state;
* the dependence deriver (:mod:`repro.core.deps`) intersects sweeps at
  **byte** granularity to decide which DThread instances conflict —
  lines would manufacture false conflicts between neighbours sharing a
  line, and false conflicts inside one template are fatal (self-arcs are
  illegal).

Both views of one sweep live here.  A sweep is canonicalised either to
its line-index vector (:func:`op_line_index`, exactly the representation
the owner map always used) or to a canonical ``(k, 2)`` int64 array of
disjoint half-open byte intervals (:func:`op_intervals`).  On top of the
interval form sit the set queries (:func:`intervals_overlap`,
:func:`intervals_intersection`, :func:`intervals_difference`), the one
per-instance footprint form (:func:`merged_footprints`) and the
coordinate-compressed :class:`SegmentSpace` both checkers sweep their
last-writer state over — through :meth:`SegmentSpace.window`, which
selects only the segments a footprint covers, so a sweep costs what it
touches.  :class:`LineTable` is the per-region, per-line vector state
the owner map keeps (one row per region, lazily created).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Sequence, Tuple, Union

import numpy as np

from repro.sim.accesses import Region, _RangeOp

__all__ = [
    "op_line_index",
    "op_intervals",
    "merge_intervals",
    "intervals_overlap",
    "intervals_intersection",
    "intervals_difference",
    "merged_footprints",
    "distinct",
    "SegmentSpace",
    "LineTable",
    "EMPTY_INTERVALS",
]

#: Canonical empty interval set (shape ``(0, 2)``).
EMPTY_INTERVALS = np.empty((0, 2), dtype=np.int64)
_INT64 = np.iinfo(np.int64)


# -- line view (the owner map's granularity) -----------------------------------
def op_line_index(
    op: _RangeOp, line_size: int
) -> Union[slice, np.ndarray]:
    """Vector index selecting the lines one sweep touches.

    Dense sweeps (stride <= line size) become a ``slice``; strided sweeps
    an explicit ``np.intp`` index array — both index per-line state
    arrays (:class:`LineTable` rows) directly.
    """
    lines = op.line_indices(line_size)
    if isinstance(lines, range):
        return slice(lines.start, lines.stop)
    return np.asarray(lines, dtype=np.intp)


class LineTable:
    """Per-region, per-line vector state (one 1-D array per region).

    The owner map keeps two of these (last-writer id and copy-set mask);
    rows are created eagerly for the regions known at construction and
    lazily for regions declared later (which never happens for built
    programs, whose environment is frozen at build time).
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


# -- byte-interval view (the deriver's granularity) ----------------------------
def op_intervals(op: _RangeOp) -> np.ndarray:
    """Canonical disjoint half-open byte intervals of one sweep.

    ``reps`` is ignored: repeating a sweep changes its cost, not its
    footprint.  Dense sweeps (stride <= elem_size) collapse to a single
    interval; strided sweeps yield one interval per element.
    """
    if op.count == 0:
        return EMPTY_INTERVALS
    if op.stride <= op.elem_size:
        end = op.offset + (op.count - 1) * op.stride + op.elem_size
        return np.array([[op.offset, end]], dtype=np.int64)
    starts = op.offset + np.arange(op.count, dtype=np.int64) * op.stride
    return np.stack([starts, starts + op.elem_size], axis=1)


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


def intervals_overlap(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two interval sets share at least one byte.

    Both arguments must be canonical (disjoint, sorted) — the output of
    :func:`op_intervals` or :func:`merge_intervals`.
    """
    if len(a) == 0 or len(b) == 0:
        return False
    # For each b-interval, the last a-interval starting before its end.
    pos = np.searchsorted(a[:, 0], b[:, 1], side="left")
    has_prior = pos > 0
    if not has_prior.any():
        return False
    prior_end = a[pos[has_prior] - 1, 1]
    return bool((prior_end > b[has_prior, 0]).any())


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``arange(lo[i], hi[i])`` for every *i* (at least one), concatenated."""
    n = hi - lo
    ends = np.cumsum(n)
    return np.arange(ends[-1]) + np.repeat(lo - (ends - n), n)


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
    j = _ranges(first, last)
    return np.stack(
        [np.maximum(a[i, 0], b[j, 0]), np.minimum(a[i, 1], b[j, 1])], axis=1
    )


def intervals_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Parts of *a* not covered by *b*, in canonical form.

    Both arguments must be canonical (disjoint, sorted).  The race
    checker uses this to name exactly which bytes of an observed
    footprint fall outside the declared one — almost always one interval
    against one, which is answered on Python ints; the general case
    intersects *a* with the gaps of *b*.
    """
    a = np.asarray(a, dtype=np.int64).reshape(-1, 2)
    b = np.asarray(b, dtype=np.int64).reshape(-1, 2)
    if len(a) == 0 or len(b) == 0:
        return a.copy()
    if len(a) == 1 and len(b) == 1:
        (lo, hi), (cut_lo, cut_hi) = a[0].tolist(), b[0].tolist()
        sides = [(lo, min(hi, cut_lo)), (max(lo, cut_hi), hi)]
        return np.array(
            [side for side in sides if side[0] < side[1]], dtype=np.int64
        ).reshape(-1, 2)
    gaps = np.empty((len(b) + 1, 2), dtype=np.int64)
    gaps[0, 0], gaps[-1, 1] = _INT64.min, _INT64.max
    gaps[1:, 0] = b[:, 1]
    gaps[:-1, 1] = b[:, 0]
    return intervals_intersection(a, gaps)


def merged_footprints(
    ops: Iterable[Tuple[str, bool, np.ndarray]],
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Per-region canonical ``(read, write)`` interval sets of one
    instance, from its ``(region name, is_write, intervals)`` ops — the
    one footprint form the deriver, ``check_deps`` and the race checker
    all judge.  Each op's intervals must be canonical; empty ones are
    dropped, and a side made of a single op is that op's array as is.
    """
    sides: Dict[str, Tuple[list, list]] = {}
    for name, is_write, iv in ops:
        if len(iv):
            sides.setdefault(name, ([], []))[is_write].append(iv)
    return {
        name: (_union(reads), _union(writes))
        for name, (reads, writes) in sides.items()
    }


def _union(parts: Sequence[np.ndarray]) -> np.ndarray:
    if not parts:
        return EMPTY_INTERVALS
    return parts[0] if len(parts) == 1 else merge_intervals(np.concatenate(parts))


def distinct(values: np.ndarray) -> list:
    """Sorted distinct values of an integer array, as Python ints (the
    sweeps' windows are mostly a few segments wide, where a ``set`` beats
    ``np.unique`` by its call overhead; it is no slower on wide ones)."""
    return sorted(set(values.tolist()))


class SegmentSpace:
    """Coordinate-compressed 1-D space over a fixed boundary set.

    Built from every interval endpoint a region will ever see, it maps a
    footprint onto the elementary segments it covers (:meth:`window`),
    so per-segment state (last writer, reader set) can be swept with
    plain NumPy indexing at a cost proportional to the segments touched,
    not to the region.  Query intervals must be drawn from the endpoint
    set the space was built with.
    """

    __slots__ = ("bounds", "nsegments", "_sorted")

    def __init__(self, bounds: np.ndarray) -> None:
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.nsegments = max(0, len(self.bounds) - 1)
        self._sorted = self.bounds.tolist()

    @classmethod
    def from_intervals(cls, interval_sets: Iterable[np.ndarray]) -> "SegmentSpace":
        pieces = [np.asarray(iv, dtype=np.int64).ravel() for iv in interval_sets]
        flat = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        return cls(np.unique(flat))

    def window(self, intervals: np.ndarray) -> Union[slice, np.ndarray]:
        """Index of the segments covered by canonical *intervals*.

        One interval covers a contiguous run: a ``slice`` from two
        bisects, so indexing per-segment state with it yields a view.
        Several intervals yield the ``np.intp`` positions of exactly the
        covered segments (the gaps between them are never visited).
        """
        if len(intervals) == 0:
            return slice(0, 0)
        if len(intervals) == 1:
            lo, hi = intervals[0].tolist()
            return slice(bisect_left(self._sorted, lo), bisect_left(self._sorted, hi))
        return _ranges(
            np.searchsorted(self.bounds, intervals[:, 0], side="left"),
            np.searchsorted(self.bounds, intervals[:, 1], side="left"),
        )
