"""The checkers' fast paths against slow references that live only here.

``derive`` and ``analyze`` run one whole-table kernel,
``core/regions.py::conflict_sweep``, over each region's rows of a
``FootprintTable`` (cost: segments covered); ``check_deps`` judges every
declared arc's instance pairs in one batch over the table's hulls; the
interval algebra answers one-set queries.  Each is pinned differentially
(``tests/test_conflict_sweep.py`` holds the kernel and the table passes
to the same references directly):

* batched arc support == a per-pair loop over the exact per-instance
  overlap (``_instance_overlap`` below), on random template graphs mixing
  dense, strided and empty footprints under ``"same"``/``"all"``/
  ``ContextMap`` arcs;
* the swept conflicts == the dense-mask sweeps the checkers once ran (one
  boolean mask over every segment of the region per op — kept below as
  the test reference), on random op streams whose footprints share
  endpoints, touch, are empty or span the region; race findings are
  additionally held to a byte-set model of each conflict;
* ``intervals_difference`` (the per-record reference the grouped
  difference is held to) and ``intervals_intersection`` == byte sets;
* a scale guard on *work done*: on 8,000 disjoint writers and one reader
  the segments the kernel's rows cover stay linear in the op count (the
  dense masks were instances x segments).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check import run_checked
from repro.core import ProgramBuilder, check_deps
from repro.core.deps import ContextMap, Reachability, derive
from repro.core.regions import (
    EMPTY_INTERVALS,
    SegmentSpace,
    intervals_intersection,
    merge_intervals,
)
from repro.sim.accesses import AccessSummary

ELEM = 8


def _noop(env, _ctx):
    return None


# -- references: byte sets, per-op and per-record intervals, dense masks -------
def _bytes(intervals) -> set:
    return {b for lo, hi in np.asarray(intervals).reshape(-1, 2) for b in range(lo, hi)}


def _as_intervals(byte_set) -> tuple:
    """Canonical interval tuple of a byte set (maximal runs)."""
    out, run = [], None
    for b in sorted(byte_set):
        if run is not None and b == run[1]:
            run[1] = b + 1
        else:
            run = [b, b + 1]
            out.append(run)
    return tuple((lo, hi) for lo, hi in out)


def op_intervals(op) -> np.ndarray:
    """Canonical byte intervals of one sweep: dense sweeps collapse to one
    interval, strided ones yield one per element (``reps`` ignored)."""
    if op.count == 0:
        return EMPTY_INTERVALS
    if op.stride <= op.elem_size:
        end = op.offset + (op.count - 1) * op.stride + op.elem_size
        return np.array([[op.offset, end]], dtype=np.int64)
    starts = op.offset + np.arange(op.count, dtype=np.int64) * op.stride
    return np.stack([starts, starts + op.elem_size], axis=1)


def intervals_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Parts of canonical *a* not covered by canonical *b*: *a* intersected
    with the gaps of *b* — one record's undeclared bytes."""
    a = np.asarray(a, dtype=np.int64).reshape(-1, 2)
    b = np.asarray(b, dtype=np.int64).reshape(-1, 2)
    if len(a) == 0 or len(b) == 0:
        return a.copy()
    gaps = np.empty((len(b) + 1, 2), dtype=np.int64)
    gaps[0, 0], gaps[-1, 1] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    gaps[1:, 0] = b[:, 1]
    gaps[:-1, 1] = b[:, 0]
    return intervals_intersection(a, gaps)


def _footprints(graph, env, instances) -> dict:
    """idx -> region -> canonical (read, write) intervals of every instance
    whose template declares accesses, one instance at a time."""
    footprints = {}
    for idx, (tid, ctx) in enumerate(instances):
        accesses = graph.template(tid).accesses
        if accesses is None:
            continue
        sides = {}
        for op in accesses(env, ctx):
            if op.count:
                sides.setdefault(op.region.name, ([], []))[op.is_write].append(
                    op_intervals(op)
                )
        footprints[idx] = {
            name: tuple(
                merge_intervals(np.concatenate(p)) if p else EMPTY_INTERVALS
                for p in rw
            )
            for name, rw in sides.items()
        }
    return footprints


def _instance_overlap(footprints, src, dst) -> bool:
    """Any write/read, write/write or read/write byte overlap between two
    instances on any region — the exact per-pair test."""
    a, b = footprints.get(src, {}), footprints.get(dst, {})
    for name in a.keys() & b.keys():
        (a_read, a_write), (b_read, b_write) = a[name], b[name]
        for x, y in ((a_write, b_read), (a_write, b_write), (a_read, b_write)):
            if len(intervals_intersection(x, y)):
                return True
    return False


def _dense_mask(bounds: np.ndarray, intervals: np.ndarray) -> np.ndarray:
    """The deleted ``SegmentSpace.mask``: one flag per segment of the
    whole region, whatever the footprint covers."""
    nseg = max(0, len(bounds) - 1)
    covered = np.zeros(nseg, dtype=bool)
    for lo, hi in np.asarray(intervals).reshape(-1, 2):
        covered[np.searchsorted(bounds, lo) : np.searchsorted(bounds, hi)] = True
    return covered


def _dense_derive_pairs(region_ops):
    """The deriver's last-writer/reader-set sweep on dense masks.

    *region_ops*: region -> [(instance idx, is_write, intervals)] in
    program order.  Returns ``(pairs, pair_regions)`` as ``derive`` does.
    """
    pairs, pair_regions = {}, {}

    def record(src, dst, kind, region):
        if src != dst:
            pairs.setdefault((src, dst), set()).add(kind)
            pair_regions.setdefault((src, dst), set()).add(region)

    for name, ops in region_ops.items():
        bounds = SegmentSpace.from_intervals(iv for _, _, iv in ops).bounds
        nseg = max(0, len(bounds) - 1)
        last_writer = np.full(nseg, -1, dtype=np.int64)
        readers = [frozenset() for _ in range(nseg)]
        for idx, is_write, iv in ops:
            for seg in np.flatnonzero(_dense_mask(bounds, iv)).tolist():
                if is_write:
                    for reader in readers[seg]:
                        record(reader, idx, "RW", name)
                    if not readers[seg] and last_writer[seg] >= 0:
                        record(int(last_writer[seg]), idx, "WW", name)
                    last_writer[seg] = idx
                    readers[seg] = frozenset()
                else:
                    if last_writer[seg] >= 0:
                        record(int(last_writer[seg]), idx, "WR", name)
                    readers[seg] = readers[seg] | {idx}
    return pairs, pair_regions


def _dense_race_candidates(order, footprints):
    """The race checker's candidate sweep on dense masks.

    *footprints*: gid -> region -> (read, write) canonical intervals;
    *order*: the topological linearisation the checker sweeps in.
    """
    position = {gid: i for i, gid in enumerate(order)}
    by_region = {}
    for gid, fp in footprints.items():
        for region in fp:
            by_region.setdefault(region, []).append(gid)
    candidates = set()
    for region, touching in by_region.items():
        touching.sort(key=position.__getitem__)
        bounds = SegmentSpace.from_intervals(
            iv for gid in touching for iv in footprints[gid][region]
        ).bounds
        nseg = max(0, len(bounds) - 1)
        last_writer = np.full(nseg, -1, dtype=np.int64)
        readers = [frozenset() for _ in range(nseg)]
        for gid in touching:
            obs_r, obs_w = footprints[gid][region]
            rmask = _dense_mask(bounds, obs_r)
            wmask = _dense_mask(bounds, obs_w)
            for seg in np.flatnonzero(rmask | wmask).tolist():
                prior = int(last_writer[seg])
                if prior >= 0 and prior != gid:
                    candidates.add((prior, gid, region))
                if wmask[seg]:
                    for reader in readers[seg]:
                        if reader != gid:
                            candidates.add((reader, gid, region))
                    last_writer[seg] = gid
                    readers[seg] = frozenset()
                else:
                    readers[seg] = readers[seg] | {gid}
    return sorted(candidates, key=lambda c: (position[c[0]], position[c[1]], c[2]))


# -- strategies -----------------------------------------------------------------
NELEMS = 16


@st.composite
def _sweeps(draw, lo=0, hi=NELEMS):
    """(offset, count, stride) in elements inside ``[lo, hi)``: empty,
    single element, dense run, strided comb or the whole range."""
    kind = draw(st.sampled_from(["empty", "dense", "dense", "strided", "whole"]))
    if kind == "empty":
        return (lo, 0, 1)
    if kind == "whole":
        return (lo, hi - lo, 1)
    start = draw(st.integers(lo, hi - 1))
    stride = 1 if kind == "dense" else draw(st.integers(2, 4))
    count = draw(st.integers(1, (hi - 1 - start) // stride + 1))
    return (start, count, stride)


def _declare(summary, region, is_write, sweep):
    offset, count, stride = sweep
    add = summary.write if is_write else summary.read
    add(region, offset=offset * ELEM, count=count, stride=stride * ELEM)


# -- (a) batched arc support == per-pair exact loop ----------------------------
@st.composite
def _arc_programs(draw):
    """Templates of *nctx* contexts; each writes inside its context's lane
    of one region and reads anywhere in another (so no template conflicts
    with itself), joined by random forward arcs."""
    nctx = draw(st.integers(1, 4))
    ntmpl = draw(st.integers(2, 4))
    lane = NELEMS // 4
    templates = []
    for _ in range(ntmpl):
        wreg, rreg = draw(st.permutations(["a", "b", "c"]))[:2]
        per_ctx = [
            (
                draw(st.lists(_sweeps(c * lane, (c + 1) * lane), max_size=2)),
                draw(st.lists(_sweeps(), max_size=2)),
            )
            for c in range(nctx)
        ]
        templates.append((wreg, rreg, per_ctx))
    arcs = []
    for src in range(ntmpl):
        for dst in range(src + 1, ntmpl):
            kind = draw(st.sampled_from([None, "same", "all", "map"]))
            if kind == "map":
                kind = ContextMap(
                    {
                        p: tuple(sorted(draw(st.sets(st.integers(0, nctx - 1)))))
                        for p in range(nctx)
                    }
                )
            if kind is not None:
                arcs.append((src, dst, kind))
    return nctx, templates, arcs


@settings(deadline=None, max_examples=120)
@given(spec=_arc_programs())
@example(  # a write touching a read at its boundary, and a strided reader
    spec=(
        2,
        [
            ("a", "b", [([(0, 4, 1)], []), ([(4, 4, 1)], [])]),
            ("b", "a", [([], [(4, 4, 1)]), ([], [(0, 4, 2)])]),
        ],
        [(0, 1, "all")],
    )
)
def test_batched_arc_support_matches_per_pair_loop(spec):
    nctx, templates, arcs = spec
    b = ProgramBuilder("arcs")
    for name in "abc":
        b.env.alloc(name, NELEMS)

    def accesses_of(wreg, rreg, per_ctx):
        def accesses(env, ctx):
            summary = AccessSummary()
            writes, reads = per_ctx[ctx]
            for sweep in writes:
                _declare(summary, env.region(wreg), True, sweep)
            for sweep in reads:
                _declare(summary, env.region(rreg), False, sweep)
            return summary

        return accesses

    tmpls = [
        b.thread(f"t{t}", body=_noop, contexts=nctx, accesses=accesses_of(*spec_t))
        for t, spec_t in enumerate(templates)
    ]
    for src, dst, mapping in arcs:
        b.depends(tmpls[src], tmpls[dst], mapping)
    prog = b.build()

    derivation = derive(prog.graph, prog.env)
    footprints = _footprints(prog.graph, prog.env, derivation.instances)
    expected = []
    for arc in prog.graph.arcs:
        cons = prog.graph.template(arc.consumer)
        index = derivation.index
        pairs = [
            (index[(arc.producer, pctx)], index[(arc.consumer, cctx)])
            for pctx in prog.graph.template(arc.producer).contexts
            for cctx in arc.consumer_contexts(pctx, cons)
        ]
        supported = sum(
            _instance_overlap(footprints, s, d) for s, d in pairs
        )
        if not pairs or supported == len(pairs):
            status = "supported"
        else:
            status = "partial" if supported else "redundant"
        expected.append((status, supported, len(pairs)))

    got = [
        (a.status, a.supported_pairs, a.total_pairs) for a in check_deps(prog).arcs
    ]
    assert got == expected


# -- (b) swept conflicts == dense-mask sweeps ----------------------------------
#: One op of a stream: (region, is_write, sweep).
_stream_ops = st.lists(
    st.tuples(st.sampled_from(["a", "b"]), st.booleans(), _sweeps()), max_size=4
)


@settings(deadline=None, max_examples=150)
@given(streams=st.lists(_stream_ops, min_size=2, max_size=7))
@example(  # shared endpoints, touching neighbours, an empty op, a whole-region read
    streams=[
        [("a", True, (0, 4, 1))],
        [("a", True, (4, 4, 1)), ("a", False, (0, 0, 1))],
        [("a", False, (2, 4, 1))],
        [("a", False, (0, NELEMS, 1)), ("a", True, (0, NELEMS, 1))],
        [("a", True, (1, 5, 3))],
    ]
)
def test_windowed_derive_matches_dense_sweep(streams):
    """One single-context template per stream (so every conflict has a
    legal arc): ``derive`` == the dense-mask sweep over the same ops."""
    b = ProgramBuilder("streams")
    b.env.alloc("a", NELEMS)
    b.env.alloc("b", NELEMS)

    def accesses_of(ops):
        def accesses(env, _ctx):
            summary = AccessSummary()
            for region, is_write, sweep in ops:
                _declare(summary, env.region(region), is_write, sweep)
            return summary

        return accesses

    for t, ops in enumerate(streams):
        b.thread(f"t{t}", body=_noop, accesses=accesses_of(ops))
    derivation = derive(b.graph, b.env)

    region_ops = {}
    for idx, (tid, ctx) in enumerate(derivation.instances):
        for op in b.graph.template(tid).accesses(b.env, ctx):
            if op.count:
                region_ops.setdefault(op.region.name, []).append(
                    (idx, op.is_write, op_intervals(op))
                )
    pairs, pair_regions = _dense_derive_pairs(region_ops)
    assert derivation.pairs == pairs
    assert derivation.pair_regions == pair_regions


@settings(deadline=None, max_examples=150)
@given(
    streams=st.lists(_stream_ops, min_size=2, max_size=6),
    arc_bits=st.lists(st.booleans(), min_size=15, max_size=15),
)
@example(
    streams=[
        [("a", True, (0, 4, 1)), ("a", False, (0, 4, 1))],
        [("a", True, (3, 2, 1))],
        [("a", False, (0, NELEMS, 1))],
        [("a", True, (4, 4, 1)), ("a", True, (1, 5, 3))],
    ],
    arc_bits=[False] * 15,
)
def test_windowed_race_findings_match_dense_sweep(streams, arc_bits):
    """Bodies perform the drawn accesses under random forward arcs: the
    race findings are the dense-mask sweep's candidates with no
    happens-before path, each naming exactly the conflicting bytes."""
    b = ProgramBuilder("races")
    b.env.alloc("a", NELEMS)
    b.env.alloc("b", NELEMS)

    def body_of(ops):
        def body(env, _ctx):
            for region, is_write, (start, count, stride) in ops:
                index = slice(start, start + count * stride, stride)
                if is_write:
                    env.array(region)[index] = 1.0
                else:
                    env.array(region)[index]

        return body

    tmpls = [b.thread(f"t{t}", body=body_of(ops)) for t, ops in enumerate(streams)]
    bits = iter(arc_bits)
    for src in range(len(tmpls)):
        for dst in range(src + 1, len(tmpls)):
            if next(bits):
                b.depends(tmpls[src], tmpls[dst])
    prog = b.build()
    consumers = prog.expanded().consumers
    report = run_checked(prog)

    footprints = {}
    for gid, ops in enumerate(streams):
        sides = {}
        for region, is_write, (start, count, stride) in ops:
            iv = [
                ((start + i * stride) * ELEM, (start + i * stride + 1) * ELEM)
                for i in range(count)
            ]
            if iv:
                sides.setdefault(region, ([], []))[is_write].extend(iv)
        footprints[gid] = {
            region: (merge_intervals(np.array(r)), merge_intervals(np.array(w)))
            for region, (r, w) in sides.items()
        }
    reach = Reachability(consumers)
    expected = []
    for a, b_, region in _dense_race_candidates(reach.order, footprints):
        if reach.ordered(a, b_):
            continue
        (ar, aw), (br, bw) = (
            tuple(map(_bytes, footprints[g][region])) for g in (a, b_)
        )
        kinds = [
            kind
            for kind, hit in (
                ("write/write", aw & bw),
                ("write/read", aw & br),
                ("read/write", ar & bw),
            )
            if hit
        ]
        conflict = (aw & (br | bw)) | ((ar | aw) & bw)
        expected.append(
            (
                (f"t{a}[0]", f"t{b_}[0]"),
                region,
                _as_intervals(conflict),
                ", ".join(kinds),
            )
        )
    assert not report.undeclared
    assert [
        (f.instances, f.region, f.intervals, f.access) for f in report.races
    ] == expected


# -- (c) interval algebra == byte sets -----------------------------------------
@st.composite
def _canonical(draw, max_intervals):
    """Disjoint, sorted, non-touching intervals in ``[0, 40)``."""
    n = draw(st.integers(0, max_intervals))
    cuts = sorted(draw(st.sets(st.integers(0, 40), min_size=2 * n, max_size=2 * n)))
    iv = np.array(cuts, dtype=np.int64).reshape(-1, 2)
    return merge_intervals(iv)


@settings(deadline=None, max_examples=300)
@given(
    a=st.one_of(_canonical(1), _canonical(5)),
    b=st.one_of(_canonical(1), _canonical(5)),
)
@example(a=np.array([[4, 8]]), b=np.array([[4, 8]]))      # equal
@example(a=np.array([[4, 8]]), b=np.array([[0, 12]]))     # contained
@example(a=np.array([[0, 12]]), b=np.array([[4, 8]]))     # containing
@example(a=np.array([[4, 8]]), b=np.array([[8, 12]]))     # touching
@example(a=np.array([[0, 40]]), b=np.array([[0, 2], [5, 9], [38, 40]]))
@example(a=np.array([[0, 2], [5, 9], [38, 40]]), b=np.array([[1, 39]]))
def test_interval_algebra_matches_byte_sets(a, b):
    difference = intervals_difference(a, b)
    intersection = intervals_intersection(a, b)
    assert difference.shape[1:] == (2,) and intersection.shape[1:] == (2,)
    a_bytes, b_bytes = _bytes(a), _bytes(b)
    assert tuple(map(tuple, difference.tolist())) == _as_intervals(a_bytes - b_bytes)
    assert tuple(map(tuple, intersection.tolist())) == _as_intervals(a_bytes & b_bytes)


# -- (d) scale guard: work done, not seconds -----------------------------------
def test_sweep_work_is_linear_in_ops(monkeypatch):
    """8,000 writers of one element each and one reader of everything:
    both checkers come out clean, their kernels having cut the table's
    rows into a number of segments proportional to the ops, not
    instances x segments."""
    n = 8000
    widths = []
    segments = SegmentSpace.segments

    def spy(self, lo, hi):
        first, stop = segments(self, lo, hi)
        widths.extend((stop - first).tolist())
        return first, stop

    monkeypatch.setattr(SegmentSpace, "segments", spy)

    b = ProgramBuilder("scale")
    b.env.alloc("a", n)
    b.env.alloc("total", 1)
    reg_a, reg_total = b.env.region("a"), b.env.region("total")

    def write_one(env, i):
        env.array("a")[i] = float(i)

    def read_all(env, _ctx):
        env.array("total")[0] = env.array("a")[:].sum()

    writers = b.thread(
        "w",
        body=write_one,
        contexts=n,
        accesses=lambda env, i: AccessSummary().write(reg_a, offset=i * ELEM, count=1),
    )
    reader = b.thread(
        "r",
        body=read_all,
        accesses=lambda env, _ctx: AccessSummary().read(reg_a).write(reg_total),
    )
    b.depends(writers, reader, "all")
    prog = b.build()

    deps = check_deps(prog)
    assert deps.ok and not deps.redundant
    report = run_checked(prog)
    assert report.ok, report.format()
    assert prog.env.array("total")[0] == n * (n - 1) / 2

    ops = (n + 2) + report.ops_recorded  # declared + recorded
    assert len(widths) >= ops
    assert sum(widths) <= 4 * ops
