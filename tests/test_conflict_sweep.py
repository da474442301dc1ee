"""The footprint table's whole-table passes against per-record references.

``derive`` and ``analyze`` no longer loop over instances: a program's
footprints are one ``FootprintTable`` and every question is a pass over
it.  Each pass is held here to the slow form it replaced, on random
inputs:

* ``conflict_sweep`` (the one last-writer/reader kernel) == the
  dense-mask sweeps ``_dense_derive_pairs`` (op order) and
  ``_dense_race_candidates`` (topological order, reads before writes) of
  ``tests/test_checker_sweeps.py``;
* ``FootprintTable.canonical`` == ``merge_intervals`` per group;
  ``sweep_intervals`` == ``op_intervals`` per sweep;
* ``grouped_difference`` == ``intervals_difference`` per record, region
  and side; ``FootprintTable.overlap`` == byte sets;
* the batched ``Reachability.ordered`` gather == one ``ordered`` call
  per pair == a DFS closure;
* ``check_deps``' arc pairs built from the expansion's runs == the
  per-pair ``consumer_contexts`` lists.
"""

from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.deps import Reachability, _arc_pairs
from repro.core.regions import (
    FootprintTable,
    conflict_sweep,
    grouped_difference,
    merge_intervals,
    sweep_intervals,
    unique_rows,
)
from repro.sim.accesses import Read, Region, Write
from tests.test_checker_sweeps import (
    NELEMS,
    _bytes,
    _dense_derive_pairs,
    _dense_race_candidates,
    _sweeps,
    intervals_difference,
    op_intervals,
)
from tests.test_core_graph import _mixed_arc_graphs
from tests.test_deps_derivation import _as_runs, _naive_closure, _random_dags

ELEM = 8
REGIONS = ("a", "b")


def _rows(intervals):
    return [tuple(iv) for iv in np.asarray(intervals).reshape(-1, 2).tolist()]


# -- the kernel == the dense-mask sweeps ----------------------------------------
#: Instances in program order, each a list of (region, is_write, sweep) ops.
_streams = st.lists(
    st.lists(st.tuples(st.sampled_from(REGIONS), st.booleans(), _sweeps()), max_size=4),
    min_size=1,
    max_size=7,
)


@settings(deadline=None, max_examples=200)
@given(streams=_streams)
@example(  # a read then a write of one segment by one instance, then a rewrite
    streams=[
        [("a", True, (0, 4, 1))],
        [("a", False, (0, 4, 1)), ("a", True, (2, 4, 1))],
        [("a", True, (1, 5, 3))],
    ]
)
def test_kernel_in_op_order_matches_dense_derive(streams):
    """Rows in op order: previous writers of reads are WR, of writes with
    no read between WW, readers before the next write RW."""
    region_ops, found = {}, {}
    seq, inst, names, write, lo, hi = [], [], [], [], [], []
    for idx, ops in enumerate(streams):
        for region, is_write, (start, count, stride) in ops:
            sweep = Write(
                Region(region, NELEMS * ELEM, 0), start * ELEM, count, ELEM, stride * ELEM
            )
            iv = op_intervals(sweep)
            if not len(iv):
                continue
            region_ops.setdefault(region, []).append((idx, is_write, iv))
            for a, b in _rows(iv):
                seq.append(len(region_ops[region]) - 1)
                inst.append(idx)
                names.append(region)
                write.append(is_write)
                lo.append(a)
                hi.append(b)
    seq, inst, write, lo, hi = (np.array(c, dtype=np.int64) for c in (seq, inst, write, lo, hi))
    names = np.array(names)
    for region in region_ops:
        at = names == region
        c = conflict_sweep(seq[at], inst[at], write[at], lo[at], hi[at])
        wr, ww = ~c.writes, c.writes & c.adjacent
        for src, dst, kind in (
            (c.writer[wr], c.accessor[wr], "WR"),
            (c.writer[ww], c.accessor[ww], "WW"),
            (c.reader, c.next_writer, "RW"),
        ):
            for s, d in zip(src.tolist(), dst.tolist()):
                if s != d:
                    found.setdefault((s, d), set()).add(kind)
    pairs, _ = _dense_derive_pairs(region_ops)
    assert found == pairs


@st.composite
def _footprint_runs(draw):
    """Per instance, per region, a canonical (read, write) footprint, and
    a topological order to sweep the instances in."""
    n = draw(st.integers(2, 7))
    footprints = {}
    for gid in range(n):
        sides = {}
        for region, is_write, (start, count, stride) in draw(
            st.lists(st.tuples(st.sampled_from(REGIONS), st.booleans(), _sweeps()), max_size=4)
        ):
            iv = [((start + i * stride) * ELEM, (start + i * stride + 1) * ELEM) for i in range(count)]
            if iv:
                sides.setdefault(region, ([], []))[is_write].extend(iv)
        footprints[gid] = {
            region: tuple(merge_intervals(np.array(p, dtype=np.int64).reshape(-1, 2)) for p in rw)
            for region, rw in sides.items()
        }
    return draw(st.permutations(range(n))), footprints


@settings(deadline=None, max_examples=200)
@given(run=_footprint_runs())
def test_kernel_in_topological_order_matches_dense_races(run):
    """Canonical rows keyed by position, reads before writes: every
    previous writer and every reader before the next write is a race
    candidate."""
    order, footprints = run
    position = {gid: i for i, gid in enumerate(order)}
    found = set()
    for region in REGIONS:
        seq, inst, write, lo, hi = [], [], [], [], []
        for gid, fp in footprints.items():
            for side, iv in enumerate(fp.get(region, ())):
                for a, b in _rows(iv):
                    seq.append(position[gid] * 2 + side)
                    inst.append(gid)
                    write.append(side)
                    lo.append(a)
                    hi.append(b)
        c = conflict_sweep(*(np.array(col, dtype=np.int64) for col in (seq, inst, write, lo, hi)))
        for src, dst in ((c.writer, c.accessor), (c.reader, c.next_writer)):
            found |= {(s, d, region) for s, d in zip(src.tolist(), dst.tolist()) if s != d}
    ranked = sorted(found, key=lambda c: (position[c[0]], position[c[1]], c[2]))
    assert ranked == _dense_race_candidates(order, footprints)


# -- the table passes == per-group references -----------------------------------
@st.composite
def _tables(draw, ninst=4):
    """Raw rows over a few instances, both regions and both sides:
    overlapping, touching, duplicated and nested intervals."""
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, ninst - 1), st.integers(0, 1), st.integers(0, 1),
                st.integers(0, 30), st.integers(1, 10),
            ),
            max_size=30,
        )
    )
    cols = [[r[k] for r in rows] for k in range(4)] + [[r[3] + r[4] for r in rows]]
    return FootprintTable(list(REGIONS), *cols)


def _group_sets(table):
    """(inst, region, write) -> the canonical interval tuple of the rows."""
    groups = {}
    for i, r, w, a, b in zip(*(c.tolist() for c in (table.inst, table.region, table.write, table.lo, table.hi))):
        groups.setdefault((i, r, w), []).append((a, b))
    return {k: tuple(map(tuple, merge_intervals(np.array(v)).tolist())) for k, v in groups.items()}


@settings(deadline=None, max_examples=300)
@given(table=_tables())
def test_canonical_merges_each_group(table):
    canon = table.canonical()
    assert _group_sets(canon) == _group_sets(table)
    key = canon.key(canon.inst, canon.region, canon.write)
    # Sorted by group then lo, disjoint and non-touching inside a group.
    assert list(zip(key.tolist(), canon.lo.tolist())) == sorted(zip(key.tolist(), canon.lo.tolist()))
    same = key[1:] == key[:-1]
    assert (canon.lo[1:][same] > canon.hi[:-1][same]).all()


@settings(deadline=None, max_examples=300)
@given(a=_tables(), b=_tables())
def test_grouped_difference_matches_per_record(a, b):
    a, b = a.canonical(), b.canonical()
    extra = grouped_difference(a, b)
    expected = {}
    b_sets = _group_sets(b)
    for key, iv in _group_sets(a).items():
        left = intervals_difference(np.array(iv), np.array(b_sets.get(key, ())))
        if len(left):
            expected[key] = tuple(map(tuple, left.tolist()))
    assert _group_sets(extra) == expected
    assert len(extra) == sum(map(len, expected.values()))  # already canonical


@settings(deadline=None, max_examples=300)
@given(table=_tables(), picks=st.lists(st.tuples(st.integers(-1, 15), st.integers(-1, 15)), max_size=12))
def test_overlap_matches_byte_sets(table, picks):
    canon = table.canonical()
    ngroups = len(canon.groups()[0])
    a = np.array([min(x, ngroups - 1) for x, _ in picks], dtype=np.int64)
    b = np.array([min(y, ngroups - 1) for _, y in picks], dtype=np.int64)
    _, start, stop = canon.groups()

    def group_bytes(g):
        if g < 0:
            return set()
        return _bytes(np.stack([canon.lo[start[g] : stop[g]], canon.hi[start[g] : stop[g]]], axis=1))

    expected = [bool(group_bytes(x) & group_bytes(y)) for x, y in zip(a.tolist(), b.tolist())]
    assert canon.overlap(a, b).tolist() == expected


@settings(deadline=None, max_examples=200)
@given(sweeps=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 6), st.integers(1, 24), st.sampled_from([1, 4, 8])), max_size=8))
def test_sweep_intervals_match_op_intervals(sweeps):
    region = Region("r", 1024, 0)
    ops = [Read(region, off, count, elem, stride) for off, count, stride, elem in sweeps]
    offset, count, stride, elem = np.array(sweeps, dtype=np.int64).reshape(-1, 4).T
    which, lo, hi = sweep_intervals(offset, count, stride, elem)
    got = [[] for _ in ops]
    for k, a, b in zip(which.tolist(), lo.tolist(), hi.tolist()):
        got[k].append((a, b))
    assert got == [_rows(op_intervals(op)) for op in ops]


def test_unique_rows_sorts_and_dedupes():
    a = np.array([3, 1, 3, 1, 2])
    b = np.array([0, 5, 0, 4, 9])
    assert [c.tolist() for c in unique_rows(a, b)] == [[1, 1, 2, 3], [4, 5, 9, 0]]


# -- happens-before and arc pairs -----------------------------------------------
@settings(deadline=None, max_examples=150)
@given(consumers=_random_dags(), data=st.data())
def test_batched_ordered_matches_per_pair_queries(consumers, data):
    n = len(consumers)
    reach = Reachability(_as_runs(consumers))
    closure = _naive_closure(consumers)
    if n:
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    else:
        pairs = []
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    batched = reach.ordered(src, dst).tolist()
    assert batched == [bool(reach.ordered(a, b)) for a, b in pairs]
    assert batched == [b in closure[a] for a, b in pairs]


@settings(deadline=None, max_examples=150)
@given(graph=_mixed_arc_graphs())
def test_arc_pairs_from_runs_match_consumer_contexts(graph):
    eg = graph.expand()
    arcs = graph.arcs
    src, dst, which = _arc_pairs(eg, list(range(len(arcs))))
    got = Counter(zip(which.tolist(), src.tolist(), dst.tolist()))
    expected = Counter(
        (number, eg.index[(arc.producer, pctx)], eg.index[(arc.consumer, cctx)])
        for number, arc in enumerate(arcs)
        for pctx in graph.template(arc.producer).contexts
        for cctx in arc.consumer_contexts(pctx, graph.template(arc.consumer))
    )
    assert got == expected
