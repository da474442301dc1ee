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
quadratic: instances are replayed in program order (template id, then
context order) over a coordinate-compressed segment space per region
(:class:`~repro.core.regions.SegmentSpace`, indexed through the window
of segments each op covers); a read draws arcs only from
the current *last writer* of each overlapped segment, and a write draws
arcs from the readers-since-last-write (plus the last writer of any
segment nobody read) — every other ordering pair is implied
transitively, exactly the pairs a hand-written graph also omits.
Because arcs always point from an earlier instance to a later one, the
derived graph is acyclic by construction *between* instances; a conflict
between two instances of the **same** template has no legal arc
(self-dependences are forbidden) and raises :class:`DerivationError` —
such templates must be split by context before deriving.

Templates without an ``accesses`` declaration are *opaque*: they
contribute no derived arcs and are reported so a diagnosis never
silently blesses a graph it could not see
(:func:`check_deps` — the ``ddmcpp --check-deps`` /
``tflux-run --check-deps`` pass; it judges each declared arc's instance
pairs in one batch over per-instance footprint hulls, with the exact
interval test kept for multi-interval footprints).  Sequential sections
(prologue/epilogue) are excluded by construction: they run strictly
before/after the parallel region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.context import Context
from repro.core.graph import ConsumerRuns, GraphError, SynchronizationGraph
from repro.core.regions import (
    SegmentSpace,
    distinct,
    intervals_overlap,
    merged_footprints,
    op_intervals,
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


@dataclass
class Derivation:
    """Everything the deriver learned about one graph + environment."""

    #: Instance table in program order: (tid, ctx) per dense index.
    instances: List[Tuple[int, Context]]
    #: (tid, ctx) -> dense instance index.
    index: Dict[Tuple[int, Context], int]
    #: Coalesced conflict pairs: (src idx, dst idx) -> set of kinds.
    pairs: Dict[Tuple[int, int], Set[str]]
    #: Region names supporting each pair.
    pair_regions: Dict[Tuple[int, int], Set[str]]
    #: Per-instance footprints: idx -> region -> (read_iv, write_iv),
    #: canonical interval arrays (raw, not coalesced — used to judge
    #: whether a *declared* arc is supported by any overlap at all).
    footprints: Dict[int, Dict[str, Tuple[np.ndarray, np.ndarray]]]
    #: Template ids that declared no accesses (opaque to the deriver).
    opaque: List[int]

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
        for (src, dst), pair_kinds in self.pairs.items():
            ptid, pctx = self.instances[src]
            ctid, cctx = self.instances[dst]
            key = (ptid, ctid)
            grouped.setdefault(key, {}).setdefault(pctx, []).append(cctx)
            kinds.setdefault(key, set()).update(pair_kinds)
            regions.setdefault(key, set()).update(self.pair_regions[(src, dst)])
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
    the others are opaque.
    """
    instances: List[Tuple[int, Context]] = []
    index: Dict[Tuple[int, Context], int] = {}
    #: region name -> [(instance idx, is_write, intervals)] in program order.
    region_ops: Dict[str, List[Tuple[int, bool, np.ndarray]]] = {}
    footprints: Dict[int, Dict[str, Tuple[np.ndarray, np.ndarray]]] = {}
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
            touched = [
                (op.region.name, op.is_write, iv)
                for op in tmpl.accesses(env, ctx)
                if len(iv := op_intervals(op))
            ]
            for name, is_write, iv in touched:
                region_ops.setdefault(name, []).append((idx, is_write, iv))
            footprints[idx] = merged_footprints(touched)

    pairs: Dict[Tuple[int, int], Set[str]] = {}
    pair_regions: Dict[Tuple[int, int], Set[str]] = {}

    def record(src: int, dst: int, kind: str, region: str) -> None:
        if src == dst:
            return
        key = (src, dst)
        pairs.setdefault(key, set()).add(kind)
        pair_regions.setdefault(key, set()).add(region)

    for name, ops in region_ops.items():
        space = SegmentSpace.from_intervals(iv for _, _, iv in ops)
        nseg = space.nsegments
        last_writer = np.full(nseg, -1, dtype=np.int64)
        #: Per-segment id of the reader set accumulated since the last
        #: write; id 0 is the empty set.  Sets are copy-on-write tuples
        #: shared across segments, so registering a reader costs one
        #: union per *distinct* set id, not per segment.
        reader_sid = np.zeros(nseg, dtype=np.int64)
        reader_sets: List[Tuple[int, ...]] = [()]
        union_memo: Dict[Tuple[int, int], int] = {}
        for idx, is_write, iv in ops:
            sel = space.window(iv)
            if is_write:
                # Readers since the last write must precede this write.
                for sid in distinct(reader_sid[sel]):
                    for reader in reader_sets[sid]:
                        record(reader, idx, "RW", name)
                # Segments nobody read since their last write: order
                # against that writer directly (otherwise the chain
                # writer -> reader -> this write already orders it).
                unread = reader_sid[sel] == 0
                for src in distinct(last_writer[sel][unread]):
                    if src >= 0:
                        record(src, idx, "WW", name)
                last_writer[sel] = idx
                reader_sid[sel] = 0
            else:
                for src in distinct(last_writer[sel]):
                    if src >= 0:
                        record(src, idx, "WR", name)
                current = reader_sid[sel]
                for sid in distinct(current):
                    key = (sid, idx)
                    new_sid = union_memo.get(key)
                    if new_sid is None:
                        members = reader_sets[sid]
                        if idx in members:
                            new_sid = sid
                        else:
                            new_sid = len(reader_sets)
                            reader_sets.append(members + (idx,))
                        union_memo[key] = new_sid
                    if new_sid != sid:
                        current[current == sid] = new_sid
                reader_sid[sel] = current

    for (src, dst), pair_kinds in pairs.items():
        ptid = instances[src][0]
        ctid = instances[dst][0]
        if ptid == ctid:
            tmpl = graph.template(ptid)
            kinds = ", ".join(
                _KIND_LABEL[k] for k in sorted(pair_kinds)
            )
            raise DerivationError(
                f"instances {instances[src][1]!r} and {instances[dst][1]!r} of "
                f"template {tmpl.name!r} conflict ({kinds} on "
                f"{', '.join(sorted(pair_regions[(src, dst)]))}); "
                "self-dependences are illegal — split the template by "
                "context before deriving"
            )

    return Derivation(instances, index, pairs, pair_regions, footprints, opaque)


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


def _instance_overlap(
    footprints: Dict[int, Dict[str, Tuple[np.ndarray, np.ndarray]]],
    src: int,
    dst: int,
) -> bool:
    """Raw (uncoalesced) conflict test between two instances: any
    write/read, write/write or read/write byte overlap on any region.
    The exact test behind :func:`_supported_pairs`' hull prefilter."""
    a = footprints.get(src)
    b = footprints.get(dst)
    if a is None or b is None:
        return False
    for name in a.keys() & b.keys():
        a_read, a_write = a[name]
        b_read, b_write = b[name]
        if (
            intervals_overlap(a_write, b_read)
            or intervals_overlap(a_write, b_write)
            or intervals_overlap(a_read, b_write)
        ):
            return True
    return False


#: One instance's column of :func:`_footprint_hulls` before it touches
#: the region: empty read and write hulls (``lo`` above every ``hi``, so
#: they overlap nothing), single-interval.
_INT64 = np.iinfo(np.int64)
_NO_FOOTPRINT = np.array(
    [[_INT64.max], [_INT64.min], [_INT64.max], [_INT64.min], [0]], dtype=np.int64
)


def _footprint_hulls(
    footprints: Dict[int, Dict[str, Tuple[np.ndarray, np.ndarray]]], n: int
) -> Dict[str, np.ndarray]:
    """Per region, a ``(5, n)`` int64 table over instance indices: read
    hull ``lo, hi``, write hull ``lo, hi`` and whether either side is
    more than one interval (so its hull over-approximates it)."""
    hulls: Dict[str, np.ndarray] = {}
    for idx, by_region in footprints.items():
        for name, (reads, writes) in by_region.items():
            table = hulls.get(name)
            if table is None:
                table = hulls[name] = np.tile(_NO_FOOTPRINT, n)
            for row, iv in ((0, reads), (2, writes)):
                if len(iv):
                    table[row, idx], table[row + 1, idx] = iv[0, 0], iv[-1, 1]
            table[4, idx] = len(reads) > 1 or len(writes) > 1
    return hulls


def _supported_pairs(
    footprints: Dict[int, Dict[str, Tuple[np.ndarray, np.ndarray]]],
    hulls: Dict[str, np.ndarray],
    src: np.ndarray,
    dst: np.ndarray,
) -> int:
    """How many ``(src[i], dst[i])`` instance pairs conflict on some region.

    Hull overlap decides every pair at once per region and is exact when
    neither footprint is multi-interval (every dense sweep); only pairs
    whose sole hull overlaps involve a multi-interval footprint (strided
    columns) go to the exact :func:`_instance_overlap`.
    """
    sure = np.zeros(len(src), dtype=bool)
    maybe = sure.copy()
    for table in hulls.values():
        a_rlo, a_rhi, a_wlo, a_whi, a_multi = table[:, src]
        b_rlo, b_rhi, b_wlo, b_whi, b_multi = table[:, dst]
        hit = (
            ((a_wlo < b_rhi) & (b_rlo < a_whi))
            | ((a_wlo < b_whi) & (b_wlo < a_whi))
            | ((a_rlo < b_whi) & (b_wlo < a_rhi))
        )
        multi = (a_multi | b_multi) != 0
        sure |= hit & ~multi
        maybe |= hit & multi
    unsure = np.flatnonzero(maybe & ~sure)
    return int(np.count_nonzero(sure)) + sum(
        _instance_overlap(footprints, s, d)
        for s, d in zip(src[unsure].tolist(), dst[unsure].tolist())
    )


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
    hulls = _footprint_hulls(derivation.footprints, len(derivation.instances))
    for arc in graph.arcs:
        prod = graph.template(arc.producer)
        cons = graph.template(arc.consumer)
        if arc.cond_key is not None:
            report.arcs.append(
                ArcDiagnosis(prod.name, cons.name, "conditional")
            )
            continue
        if arc.producer in opaque or arc.consumer in opaque:
            report.arcs.append(ArcDiagnosis(prod.name, cons.name, "opaque"))
            continue
        src: List[int] = []
        dst: List[int] = []
        for pctx in prod.contexts:
            outs = arc.consumer_contexts(pctx, cons)
            src += [derivation.index[(arc.producer, pctx)]] * len(outs)
            dst += [derivation.index[(arc.consumer, cctx)] for cctx in outs]
        total = len(src)
        supported = _supported_pairs(
            derivation.footprints, hulls, np.array(src, np.intp), np.array(dst, np.intp)
        )
        if total == 0 or supported == total:
            status = "supported"
        elif supported == 0:
            status = "redundant"
        else:
            status = "partial"
        report.arcs.append(
            ArcDiagnosis(prod.name, cons.name, status, supported, total)
        )

    if derivation.pairs:
        reach = Reachability(expanded.consumers)
        for (src, dst) in sorted(derivation.pairs):
            ptid, pctx = derivation.instances[src]
            ctid, cctx = derivation.instances[dst]
            if not reach.ordered(src, dst):
                report.missing.append(
                    MissingDep(
                        graph.template(ptid).name,
                        pctx,
                        graph.template(ctid).name,
                        cctx,
                        tuple(sorted(derivation.pairs[(src, dst)])),
                        tuple(sorted(derivation.pair_regions[(src, dst)])),
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

    def ordered(self, a: int, b: int) -> bool:
        """Whether a directed path leads from node *a* to node *b*."""
        return bool(self._reach[a, self._word[b]] & self._mask[b])


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
