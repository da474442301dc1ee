"""Dependence derivation: compute the Synchronization Graph from accesses.

TFlux's DDMCPP makes the programmer state every arc and Ready Count by
hand; Couillard showed the same coarse-grained dataflow graph can be
*compiled* from per-thread access annotations.  The information is
already declared here — every app DThread carries an
:class:`~repro.sim.accesses.AccessSummary` for the memory models — so
this module closes the loop: given a template graph and its environment,
it computes the write→read, write→write and read→write ordering arcs at
**instance** granularity and folds them back into template-level arcs
(``"same"``/``"all"``/context-map) that expand to exactly the needed
Ready Counts.

Last-writer coalescing keeps derived graphs linear rather than
quadratic: every op of every instance is one row of a
:class:`~repro.core.regions.FootprintTable`, and per region one
:func:`~repro.core.regions.conflict_sweep` replays the rows in program
order (template id, then context order, then op order) over a
coordinate-compressed segment space; a read draws arcs only from the
*last writer* of each overlapped segment, and a write draws arcs from
the readers-since-last-write (plus the last writer of any segment nobody
read) — every other ordering pair is implied transitively, exactly the
pairs a hand-written graph also omits.
Because arcs always point from an earlier instance to a later one, the
derived graph is acyclic by construction *between* instances; a conflict
between two instances of the **same** template has no legal arc
(self-dependences are forbidden) and raises :class:`DerivationError` —
such templates must be split by context before deriving.

Templates without an ``accesses`` declaration are *opaque*: they
contribute no derived arcs and are reported so a diagnosis never
silently blesses a graph it could not see
(:func:`check_deps` — the ``ddmcpp --check-deps`` /
``tflux-run --check-deps`` pass; it expands every declared arc's runs
into instance-pair arrays and judges them in one batch over the footprint
table's hulls, with an exact table overlap for multi-interval
footprints).  Sequential sections
(prologue/epilogue) are excluded by construction: they run strictly
before/after the parallel region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.context import Context
from repro.core.graph import ConsumerRuns, GraphError, SynchronizationGraph
from repro.core.regions import (
    FootprintTable,
    concat_ranges,
    conflict_sweep,
    sweep_intervals,
    unique_rows,
)

__all__ = [
    "DerivationError",
    "DerivedArc",
    "Derivation",
    "derive",
    "ContextMap",
    "ArcDiagnosis",
    "MissingDep",
    "DepsReport",
    "check_deps",
    "Reachability",
]

#: Conflict kinds, in the order they are reported.
_KIND_LABEL = {"WR": "write→read", "WW": "write→write", "RW": "read→write"}
_INT64 = np.iinfo(np.int64)
_NONE = np.empty(0, dtype=np.int64)
#: The (producer side, consumer side) pairs that conflict: write/read,
#: write/write, read/write (side 0 reads, 1 writes).
_CONFLICT_SIDES = ((1, 0), (1, 1), (0, 1))


class DerivationError(GraphError):
    """Raised when access declarations admit no legal arc set."""


class ContextMap:
    """A derived context mapping: producer ctx -> consumer contexts.

    Arc mappings may be arbitrary callables; derived arcs that are
    neither ``"same"`` nor ``"all"`` use this dict-backed one so the
    mapping is inspectable (and deterministic: consumer contexts are
    sorted).
    """

    __slots__ = ("table",)

    def __init__(self, table: Dict[Context, Tuple[Context, ...]]) -> None:
        self.table = table

    def __call__(self, producer_ctx: Context) -> Tuple[Context, ...]:
        return self.table.get(producer_ctx, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ContextMap({self.table!r})"


@dataclass(frozen=True)
class DerivedArc:
    """One template-level arc computed from access overlaps."""

    producer: int
    consumer: int
    mapping: object  # "same" | "all" | ContextMap
    #: Conflict kinds supporting the arc (union over its instance pairs).
    kinds: frozenset = frozenset()
    #: Region names on which the conflicts occur.
    regions: frozenset = frozenset()


#: Conflict kind codes of :attr:`Derivation.conflicts`.
_KINDS = ("WR", "WW", "RW")
_WR, _WW, _RW = range(3)


@dataclass
class Derivation:
    """Everything the deriver learned about one graph + environment."""

    #: Instance table in program order: (tid, ctx) per dense index.
    instances: List[Tuple[int, Context]]
    #: (tid, ctx) -> dense instance index.
    index: Dict[Tuple[int, Context], int]
    #: Coalesced conflicts, one row per (src idx, dst idx, kind, region):
    #: distinct, sorted int64 columns; a kind indexes ``_KINDS``, a region
    #: ``ops.names``.
    conflicts: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    #: Every declared op's intervals, one row each, in program order.
    ops: FootprintTable
    #: Template ids that declared no accesses (opaque to the deriver).
    opaque: List[int]

    @property
    def footprints(self) -> FootprintTable:
        """Every instance's footprint in canonical form (raw, not
        coalesced — what judges whether a *declared* arc is supported by
        any overlap)."""
        return self.ops.canonical()

    @property
    def pairs(self) -> Dict[Tuple[int, int], Set[str]]:
        """(src idx, dst idx) -> the conflict kinds between them."""
        pairs: Dict[Tuple[int, int], Set[str]] = {}
        src, dst, kind, _ = (col.tolist() for col in self.conflicts)
        for key, k in zip(zip(src, dst), kind):
            pairs.setdefault(key, set()).add(_KINDS[k])
        return pairs

    @property
    def pair_regions(self) -> Dict[Tuple[int, int], Set[str]]:
        """(src idx, dst idx) -> the names of the regions they conflict on."""
        names = self.ops.names
        regions: Dict[Tuple[int, int], Set[str]] = {}
        src, dst, _, region = (col.tolist() for col in self.conflicts)
        for key, r in zip(zip(src, dst), region):
            regions.setdefault(key, set()).add(names[r])
        return regions

    def template_arcs(self) -> List[DerivedArc]:
        """Fold instance pairs into template-level arcs.

        Pairs between one (producer, consumer) template pair become a
        single arc whose mapping reproduces exactly those pairs:
        ``"same"`` when every producer context maps to itself, ``"all"``
        when the full cross product is present, a :class:`ContextMap`
        otherwise.  Arcs are emitted in (producer, consumer) template
        order — the order hand-written apps declare them in.
        """
        grouped: Dict[Tuple[int, int], Dict[Context, List[Context]]] = {}
        kinds: Dict[Tuple[int, int], Set[str]] = {}
        regions: Dict[Tuple[int, int], Set[str]] = {}
        by_tid_ctxs: Dict[int, List[Context]] = {}
        for tid, ctx in self.instances:
            by_tid_ctxs.setdefault(tid, []).append(ctx)
        pair_regions = self.pair_regions
        for (src, dst), pair_kinds in self.pairs.items():
            ptid, pctx = self.instances[src]
            ctid, cctx = self.instances[dst]
            key = (ptid, ctid)
            grouped.setdefault(key, {}).setdefault(pctx, []).append(cctx)
            kinds.setdefault(key, set()).update(pair_kinds)
            regions.setdefault(key, set()).update(pair_regions[(src, dst)])
        arcs: List[DerivedArc] = []
        for key in sorted(grouped, key=lambda k: (k[0], k[1])):
            ptid, ctid = key
            table = {p: tuple(sorted(cs)) for p, cs in grouped[key].items()}
            prod_ctxs = by_tid_ctxs[ptid]
            cons_ctxs = tuple(sorted(by_tid_ctxs[ctid]))
            covers_all_producers = len(table) == len(prod_ctxs)
            if covers_all_producers and all(
                table[p] == (p,) for p in prod_ctxs
            ):
                mapping: object = "same"
            elif covers_all_producers and all(
                table[p] == cons_ctxs for p in prod_ctxs
            ):
                mapping = "all"
            else:
                mapping = ContextMap(table)
            arcs.append(
                DerivedArc(
                    ptid,
                    ctid,
                    mapping,
                    kinds=frozenset(kinds[key]),
                    regions=frozenset(regions[key]),
                )
            )
        return arcs


def derive(graph: SynchronizationGraph, env) -> Derivation:
    """Replay every instance's access summary and coalesce conflicts.

    Every template with a declared ``accesses`` callable participates;
    the others are opaque.  Each op becomes a row of plain ints; the
    rows become one :class:`FootprintTable` and, region by region, one
    :func:`conflict_sweep` in op order.
    """
    instances: List[Tuple[int, Context]] = []
    index: Dict[Tuple[int, Context], int] = {}
    codes: Dict[str, int] = {}
    #: (instance idx, region code, is_write, offset, count, stride,
    #: elem_size) per declared op, in program order.
    ops: List[Tuple[int, ...]] = []
    opaque: List[int] = []

    for tmpl in graph.templates:
        participates = tmpl.accesses is not None
        if not participates:
            opaque.append(tmpl.tid)
        for ctx in tmpl.contexts:
            idx = len(instances)
            instances.append((tmpl.tid, ctx))
            index[(tmpl.tid, ctx)] = idx
            if not participates:
                continue
            for op in tmpl.accesses(env, ctx):
                ops.append((
                    idx, codes.setdefault(op.region.name, len(codes)), op.is_write,
                    op.offset, op.count, op.stride, op.elem_size,
                ))

    inst, region, write, *geometry = np.array(ops, dtype=np.int64).reshape(-1, 7).T
    op, lo, hi = sweep_intervals(*geometry)
    raw = FootprintTable(list(codes), inst[op], region[op], write[op], lo, hi)

    found = [(_NONE, _NONE, _WR, 0)]
    for r, rows in enumerate(raw.by_region()):
        c = conflict_sweep(op[rows], raw.inst[rows], raw.write[rows], raw.lo[rows], raw.hi[rows])
        # A read draws from the segment's last writer; a write from the
        # readers since it, or — when nobody read in between — from the
        # writer itself (otherwise writer -> reader -> write orders it).
        wr, ww = ~c.writes, c.writes & c.adjacent
        found += [
            (c.writer[wr], c.accessor[wr], _WR, r),
            (c.writer[ww], c.accessor[ww], _WW, r),
            (c.reader, c.next_writer, _RW, r),
        ]
    src, dst, kind, region = zip(*found)
    size = [len(s) for s in src]
    src, dst = np.concatenate(src), np.concatenate(dst)
    kind, region = np.repeat(kind, size), np.repeat(region, size)
    apart = src != dst
    derivation = Derivation(
        instances,
        index,
        unique_rows(src[apart], dst[apart], kind[apart], region[apart]),
        raw,
        opaque,
    )

    tids = np.array([tid for tid, _ in instances], dtype=np.int64)
    src, dst = derivation.conflicts[:2]
    within = np.flatnonzero(tids[src] == tids[dst])
    if len(within):
        key = s, d = int(src[within[0]]), int(dst[within[0]])
        kinds = ", ".join(_KIND_LABEL[k] for k in sorted(derivation.pairs[key]))
        raise DerivationError(
            f"instances {instances[s][1]!r} and {instances[d][1]!r} of "
            f"template {graph.template(instances[s][0]).name!r} conflict "
            f"({kinds} on {', '.join(sorted(derivation.pair_regions[key]))}); "
            "self-dependences are illegal — split the template by "
            "context before deriving"
        )
    return derivation


# -- diagnosis (the --check-deps pass) -----------------------------------------
@dataclass(frozen=True)
class ArcDiagnosis:
    """Verdict on one *declared* arc."""

    producer: str
    consumer: str
    #: "supported" | "partial" | "redundant" | "opaque" | "conditional"
    status: str
    supported_pairs: int = 0
    total_pairs: int = 0

    def describe(self) -> str:
        label = f"{self.producer} -> {self.consumer}"
        if self.status == "redundant":
            return (
                f"redundant arc {label}: none of its {self.total_pairs} "
                "instance pair(s) is supported by any access overlap"
            )
        if self.status == "partial":
            excess = self.total_pairs - self.supported_pairs
            return (
                f"over-wide arc {label}: {excess} of {self.total_pairs} "
                "instance pair(s) have no access overlap (redundant "
                "synchronisation)"
            )
        if self.status == "opaque":
            return f"arc {label}: endpoint has no access declaration (assumed intentional)"
        if self.status == "conditional":
            return f"arc {label}: conditional (control) arc, not judged by overlap"
        return f"arc {label}: supported"


@dataclass(frozen=True)
class MissingDep:
    """A derived conflict with no declared ordering path."""

    producer: str
    producer_ctx: Context
    consumer: str
    consumer_ctx: Context
    kinds: Tuple[str, ...]
    regions: Tuple[str, ...]

    def describe(self) -> str:
        kinds = ", ".join(_KIND_LABEL[k] for k in self.kinds)
        return (
            f"missing dependence: {self.producer}[{self.producer_ctx!r}] -> "
            f"{self.consumer}[{self.consumer_ctx!r}] ({kinds} on "
            f"{', '.join(self.regions)}) has no ordering path"
        )


@dataclass
class DepsReport:
    """Outcome of :func:`check_deps` on one program."""

    arcs: List[ArcDiagnosis] = field(default_factory=list)
    missing: List[MissingDep] = field(default_factory=list)
    #: Names of templates the deriver could not see into.
    opaque_templates: List[str] = field(default_factory=list)

    @property
    def redundant(self) -> List[ArcDiagnosis]:
        return [a for a in self.arcs if a.status in ("redundant", "partial")]

    @property
    def ok(self) -> bool:
        """No missing ordering (redundancy is a warning, not an error)."""
        return not self.missing

    def format(self) -> str:
        lines: List[str] = []
        for dep in self.missing:
            lines.append(f"error: {dep.describe()}")
        for arc in self.arcs:
            if arc.status in ("redundant", "partial"):
                lines.append(f"warning: {arc.describe()}")
        if self.opaque_templates:
            lines.append(
                "note: no access declarations for "
                + ", ".join(self.opaque_templates)
                + " (their ordering was not checked)"
            )
        if not lines:
            lines.append("deps: clean (every declared arc is supported, no missing dependences)")
        else:
            lines.append(
                f"deps: {len(self.missing)} missing, "
                f"{len(self.redundant)} redundant/over-wide of "
                f"{len(self.arcs)} declared arc(s)"
            )
        return "\n".join(lines)


def _arc_pairs(
    expanded, arcs: List[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, arc)`` of every instance pair the given arcs (numbers
    in the graph's arc order) declare, built from the expansion's runs:
    each run one of those arcs added is listed by its producers and
    expands to its members."""
    consumers = expanded.consumers
    arc_of_run = np.full(len(consumers.runs), -1, dtype=np.int64)
    for j, a in enumerate(arcs):
        span = expanded.arc_runs[a]
        arc_of_run[span.start : span.stop] = j
    listed = np.fromiter(map(len, consumers.out), np.int64, len(consumers))
    run = np.fromiter(chain.from_iterable(consumers.out), np.int64, int(listed.sum()))
    src = np.repeat(np.arange(len(consumers)), listed)
    judged = arc_of_run[run] >= 0
    src, run = src[judged], run[judged]
    first = np.fromiter(map(attrgetter("start"), consumers.runs), np.int64, len(consumers.runs))[run]
    stop = np.fromiter(map(attrgetter("stop"), consumers.runs), np.int64, len(consumers.runs))[run]
    size = stop - first
    return np.repeat(src, size), concat_ranges(first, stop), np.repeat(arc_of_run[run], size)


def _conflicting(
    footprints: FootprintTable, n: int, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Whether each ``(src[i], dst[i])`` instance pair has a write/read,
    write/write or read/write byte overlap on some region.

    Per region and side, an instance's footprint hull (first ``lo``,
    last ``hi``) decides every pair at once, exactly when neither side
    is more than one interval (every dense sweep); the pairs whose only
    hull overlaps involve a multi-interval footprint (strided columns)
    are settled by :meth:`FootprintTable.overlap` on those regions.
    """
    nregions = len(footprints.names)
    key, start, stop = footprints.groups()
    rest, side = np.divmod(key, 2)
    inst, region = np.divmod(rest, nregions)
    lo = np.full((nregions, 2, n), _INT64.max, dtype=np.int64)
    hi = np.full((nregions, 2, n), _INT64.min, dtype=np.int64)
    lo[region, side, inst] = footprints.lo[start]
    hi[region, side, inst] = footprints.hi[stop - 1]
    multi = np.zeros((nregions, 2, n), dtype=bool)
    multi[region, side, inst] = stop - start > 1
    multi = multi.any(axis=1)

    a_lo, a_hi, b_lo, b_hi = lo[:, :, src], hi[:, :, src], lo[:, :, dst], hi[:, :, dst]
    hit = np.zeros((nregions, len(src)), dtype=bool)
    for a, b in _CONFLICT_SIDES:
        hit |= (a_lo[:, a] < b_hi[:, b]) & (b_lo[:, b] < a_hi[:, a])
    inexact = multi[:, src] | multi[:, dst]
    sure = (hit & ~inexact).any(axis=0)
    r, p = np.nonzero(hit & ~sure)
    s, d = src[p], dst[p]
    exact = np.zeros(len(src), dtype=bool)
    for a, b in _CONFLICT_SIDES:
        both = footprints.overlap(
            footprints.find(footprints.key(s, r, a)),
            footprints.find(footprints.key(d, r, b)),
        )
        exact[p[both]] = True
    return sure | exact


def check_deps(program) -> DepsReport:
    """Diagnose a built program's declared arcs against its accesses.

    Flags *redundant* declared arcs — instance pairs no access overlap
    supports (pure barriers that over-synchronise) — and *missing*
    ordering: derived conflicts with no directed path in the declared
    instance graph.  Arcs whose endpoints are opaque (no ``accesses``)
    are assumed intentional (e.g. pure control dependences) and
    conditional arcs are never judged.  Block (Inlet/Outlet) barriers
    add further ordering at run time, so "missing" is judged against
    the graph alone — the strictest reading.
    """
    graph = program.graph
    derivation = derive(graph, program.env)
    # derive() numbers instances exactly as the expansion does (templates
    # by tid, then contexts): its indices are iids of the cached expansion.
    expanded = program.expanded()
    report = DepsReport(
        opaque_templates=[graph.template(t).name for t in derivation.opaque]
    )

    opaque = set(derivation.opaque)
    judged = [
        number
        for number, arc in enumerate(graph.arcs)
        if arc.cond_key is None and not {arc.producer, arc.consumer} & opaque
    ]
    src, dst, which = _arc_pairs(expanded, judged)
    hit = _conflicting(derivation.footprints, len(derivation.instances), src, dst)
    totals = np.bincount(which, minlength=len(judged)).tolist()
    supports = np.bincount(which[hit], minlength=len(judged)).tolist()
    verdicts = dict(zip(judged, zip(supports, totals)))
    for number, arc in enumerate(graph.arcs):
        prod = graph.template(arc.producer).name
        cons = graph.template(arc.consumer).name
        if arc.cond_key is not None:
            report.arcs.append(ArcDiagnosis(prod, cons, "conditional"))
            continue
        if number not in verdicts:
            report.arcs.append(ArcDiagnosis(prod, cons, "opaque"))
            continue
        supported, total = verdicts[number]
        if total == 0 or supported == total:
            status = "supported"
        elif supported == 0:
            status = "redundant"
        else:
            status = "partial"
        report.arcs.append(ArcDiagnosis(prod, cons, status, supported, total))

    src, dst = unique_rows(*derivation.conflicts[:2])
    if len(src):
        unordered = ~Reachability(expanded.consumers).ordered(src, dst)
        src, dst = src[unordered], dst[unordered]
    if len(src):
        pairs, pair_regions = derivation.pairs, derivation.pair_regions
        for s, d in zip(src.tolist(), dst.tolist()):
            ptid, pctx = derivation.instances[s]
            ctid, cctx = derivation.instances[d]
            report.missing.append(
                MissingDep(
                    graph.template(ptid).name,
                    pctx,
                    graph.template(ctid).name,
                    cctx,
                    tuple(sorted(pairs[(s, d)])),
                    tuple(sorted(pair_regions[(s, d)])),
                )
            )
    return report


class Reachability:
    """Transitive closure of an instance DAG — the one path query both
    checkers ask (static: "is this derived conflict ordered by the
    declared arcs?"; dynamic: "is there a happens-before path?").

    *consumers* holds the successors of every node as runs.  ``reach[u]``
    is a packed uint64 bitset of every node a token from *u* can precede,
    filled in reverse topological order (:attr:`order` is the forward
    one); the closure costs n²/64 words, a query is one word test.  A
    run's row — its members' rows and bits, ORed in one NumPy reduce —
    is built once, however many producers share it.
    """

    def __init__(self, consumers: ConsumerRuns) -> None:
        n = len(consumers)
        order = _topo_order(consumers)
        word = np.arange(n) >> 6
        mask = np.uint64(1) << (np.arange(n, dtype=np.uint64) & np.uint64(63))
        reach = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
        runs, out = consumers.runs, consumers.out
        run_rows: Dict[int, np.ndarray] = {}
        for u in reversed(order):
            row = reach[u]
            for r in out[u]:
                members = runs[r]
                if len(members) == 1:
                    v = members.start
                    row |= reach[v]
                    row[word[v]] |= mask[v]
                    continue
                run_row = run_rows.get(r)
                if run_row is None:
                    lo, hi = members.start, members.stop
                    run_row = np.bitwise_or.reduce(reach[lo:hi], axis=0)
                    np.bitwise_or.at(run_row, word[lo:hi], mask[lo:hi])
                    run_rows[r] = run_row
                row |= run_row
        #: A topological linearisation of the DAG (producers first).
        self.order = order
        self._word, self._mask, self._reach = word, mask, reach

    def ordered(self, a, b):
        """Whether a directed path leads from node *a* to node *b* — for
        two index arrays, elementwise, in one gather."""
        return (self._reach[a, self._word[b]] & self._mask[b]) != 0


def _topo_order(consumers: ConsumerRuns) -> List[int]:
    # Kept apart from ``core/block.py::_topological_order``: this LIFO
    # order fixes the order findings are reported in, that FIFO order
    # fixes block membership (and so simulated cycles).
    out, runs, producers = consumers.out, consumers.runs, consumers.producers
    indeg = consumers.indegrees()
    hits = [0] * len(runs)
    frontier = [u for u in range(len(indeg)) if indeg[u] == 0]
    order: List[int] = []
    while frontier:
        u = frontier.pop()
        order.append(u)
        for r in out[u]:
            hits[r] += 1
            if hits[r] == producers[r]:
                tokens = producers[r]
                for v in runs[r]:
                    indeg[v] -= tokens
                    if not indeg[v]:
                        frontier.append(v)
    return order
