"""Race and footprint analysis over recorded accesses.

The dynamic half of DDM dependence checking (the static half is
:mod:`repro.core.deps`).  Input: one :class:`InstanceRecord` per DThread
instance that ran — its observed byte-interval footprint per region —
plus the expanded graph epochs the run actually executed (the root
graph and every spawned Subflow).  Output: a :class:`CheckReport` of

* **undeclared accesses** — observed footprint not covered by the
  instance's declared :class:`~repro.sim.accesses.AccessSummary` (only
  judged for templates that declare one; the shared scalars region is
  exempt, as scalars are priced as whole-region traffic); and
* **races** — conflicting observed intervals on two instances with no
  happens-before path.

Happens-before is the arc-induced order the TSU itself executes: every
decrement edge of every expanded epoch, plus a spawn edge from each
spawning instance to the entry fringe of its spawned epoch.  Squash
needs no special handling — an instance is only squashed once *all* its
live inputs die, and phantom decrements fire during the producing
instance's resolution, so every edge (through squashed nodes included)
is causally ordered.  Reachability over this DAG is the per-instance
vector clock: the packed-bitset :class:`~repro.core.deps.Reachability`
kernel the static deriver's path check also uses.

Every recorded interval is one row of a
:class:`~repro.core.regions.FootprintTable`, and both judgements are
passes over it: undeclared bytes are one grouped difference (observed
minus declared, per instance, region and side), and candidate conflict
pairs come from :func:`~repro.core.regions.conflict_sweep` — the static
deriver's last-writer/reader-set kernel — run per region in a
topological linearisation of the happens-before DAG, each instance's
reads before its writes; coalescing is sound by chain transitivity (if
W1 → W2 → W3 on one segment and both adjacent pairs are ordered, so is
(W1, W3)).  The candidates' happens-before queries are one batched
gather.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.context import Context
from repro.core.deps import Reachability
from repro.core.dthread import DThreadTemplate
from repro.core.environment import Environment
from repro.core.graph import ConsumerRuns, ExpandedGraph
from repro.core.regions import (
    FootprintTable,
    conflict_sweep,
    grouped_difference,
    intervals_intersection,
    merge_intervals,
    sweep_intervals,
    unique_rows,
)

__all__ = [
    "InstanceRecord",
    "Finding",
    "CheckReport",
    "RaceCheckError",
    "analyze",
]

SCALARS_REGION = "__scalars__"
_NONE = np.empty(0, dtype=np.int64)


class RaceCheckError(RuntimeError):
    """Raised when a gated run (``JobSpec.check``) has findings."""

    def __init__(self, report: "CheckReport") -> None:
        super().__init__(report.format())
        self.report = report


class InstanceRecord:
    """One DThread instance that ran under the checker.

    Its observed footprint is not kept here: the session appends every
    recorded interval, tagged with the record's ``rid``, to one row list
    the analysis turns into a :class:`~repro.core.regions.FootprintTable`.
    """

    __slots__ = ("template", "ctx", "rid", "declared", "ops")

    def __init__(self, template: DThreadTemplate, ctx: Context, rid: int) -> None:
        self.template = template
        self.ctx = ctx
        #: Position in the session's record list (the footprint rows' tag).
        self.rid = rid
        #: Declared summary, evaluated right after the body (None = opaque).
        self.declared: Optional[object] = None
        #: Recorded ops (one per recorded access, however many intervals).
        self.ops = 0

    @property
    def name(self) -> str:
        return f"{self.template.name}[{self.ctx}]"


@dataclass(frozen=True)
class Finding:
    """One checker diagnosis (an undeclared access or a race)."""

    #: "undeclared" | "race"
    kind: str
    region: str
    #: Canonical byte intervals of the offending footprint.
    intervals: Tuple[Tuple[int, int], ...]
    #: Instance names involved: one for undeclared, two for races.
    instances: Tuple[str, ...]
    #: "read" / "write" for undeclared; "write/write" etc. for races.
    access: str
    #: Suggested reads(...)/writes(...) clause (DDMCPP syntax).
    suggestion: str

    def describe(self) -> str:
        spans = ", ".join(f"[{lo}:{hi})" for lo, hi in self.intervals)
        if self.kind == "undeclared":
            return (
                f"undeclared {self.access}: {self.instances[0]} touched "
                f"{self.region} bytes {spans} outside its declared access "
                f"summary — suggest {self.suggestion}"
            )
        hint = (
            f"add an arc between them or declare the footprint "
            f"(e.g. {self.suggestion}) and derive arcs"
            if self.suggestion
            else "add an arc ordering them"
        )
        return (
            f"race: {self.access} on {self.region} bytes {spans} between "
            f"{self.instances[0]} and {self.instances[1]} (no happens-before "
            f"path) — {hint}"
        )


@dataclass
class CheckReport:
    """Outcome of one checked run."""

    findings: List[Finding] = field(default_factory=list)
    instances_recorded: int = 0
    ops_recorded: int = 0
    #: Names of templates whose footprint was not judged against a
    #: declaration (they declare no accesses; races are still checked).
    opaque_templates: List[str] = field(default_factory=list)

    @property
    def undeclared(self) -> List[Finding]:
        return [f for f in self.findings if f.kind == "undeclared"]

    @property
    def races(self) -> List[Finding]:
        return [f for f in self.findings if f.kind == "race"]

    @property
    def ok(self) -> bool:
        return not self.findings

    def format(self) -> str:
        lines: List[str] = []
        for f in self.findings:
            lines.append(f"error: {f.describe()}")
        if self.opaque_templates:
            lines.append(
                "note: no access declarations for "
                + ", ".join(self.opaque_templates)
                + " (footprints not judged; races still checked)"
            )
        if not self.findings:
            lines.append(
                f"check: clean ({self.instances_recorded} instances "
                f"recorded, {self.ops_recorded} ops; no undeclared "
                "accesses, no races)"
            )
        else:
            lines.append(
                f"check: {len(self.undeclared)} undeclared access(es), "
                f"{len(self.races)} race(s) across "
                f"{self.instances_recorded} recorded instance(s)"
            )
        return "\n".join(lines)

    def publish(self, counters) -> None:
        """Merge ``check.*`` metrics into a :class:`repro.obs` Counters."""
        counters.inc("check.runs")
        counters.inc("check.instances_recorded", self.instances_recorded)
        counters.inc("check.ops_recorded", self.ops_recorded)
        counters.inc("check.findings_undeclared", len(self.undeclared))
        counters.inc("check.findings_race", len(self.races))


# -- helpers --------------------------------------------------------------------
def _as_tuples(iv: np.ndarray) -> Tuple[Tuple[int, int], ...]:
    return tuple((int(lo), int(hi)) for lo, hi in iv)


def _clause(
    verb: str, region: str, iv: np.ndarray, env: Environment
) -> str:
    """DDMCPP-syntax access clause covering *iv* on *region*."""
    arrays = env._arrays
    if region not in arrays:
        return f"{verb}({region})"
    arr = arrays[region]
    itemsize = int(arr.itemsize)
    lo = int(iv[0, 0]) // itemsize
    hi = -(-int(iv[-1, 1]) // itemsize)
    if lo == 0 and hi * itemsize >= int(arr.nbytes):
        return f"{verb}({region})"
    return f"{verb}({region}[{lo} .. {hi}])"


def _scalar_names_by_offset(env: Environment) -> Dict[int, str]:
    return {off: name for name, off in env._scalar_offsets.items()}


def _region_label(region: str, iv: np.ndarray, env: Environment) -> str:
    """Human-readable region name (scalar slots resolve to their name)."""
    if region != SCALARS_REGION or len(iv) == 0:
        return region
    names = _scalar_names_by_offset(env)
    name = names.get(int(iv[0, 0]))
    return f"scalar {name!r}" if name else region


# -- the analysis ---------------------------------------------------------------
def analyze(
    env: Environment,
    epochs: Sequence[Tuple[ExpandedGraph, Optional[InstanceRecord]]],
    records: Sequence[InstanceRecord],
    rows: Sequence[Tuple[int, str, bool, int, int]],
) -> CheckReport:
    """Judge recorded footprints against declarations and happens-before.

    *epochs* lists every expanded graph the run executed, each paired
    with the record of the instance that spawned it (``None`` for the
    root).  *records* is every instance that actually ran, numbered by
    ``rid``; *rows* every interval they touched, ``(rid, region,
    is_write, lo, hi)``, each record's in the order it touched them.
    """
    report = CheckReport(
        instances_recorded=len(records),
        ops_recorded=sum(rec.ops for rec in records),
    )

    # -- global instance ids + happens-before edges --------------------------
    gids: Dict[Tuple[int, Context], int] = {}
    consumers = ConsumerRuns(sum(expanded.ninstances for expanded, _ in epochs))
    spawn_edges: List[Tuple[InstanceRecord, int]] = []  # resolved below
    offset = 0
    for expanded, spawner in epochs:
        for inst in expanded.instances:
            gids[(id(inst.template), inst.ctx)] = offset + inst.iid
        # The epoch's runs, shifted past the epochs before it.
        first_run = len(consumers.runs)
        for members in expanded.consumers.runs:
            consumers.add_run(range(members.start + offset, members.stop + offset))
        for u, outs in enumerate(expanded.consumers.out):
            for r in outs:
                consumers.feed(offset + u, first_run + r)
        if spawner is not None:
            for iid in expanded.entry:
                spawn_edges.append((spawner, offset + iid))
        offset += expanded.ninstances

    for spawner, dst in spawn_edges:
        src = gids.get((id(spawner.template), spawner.ctx))
        if src is None:  # pragma: no cover - internal invariant
            raise RuntimeError(f"spawner {spawner.name} not in any epoch")
        consumers.feed(src, consumers.add_run(range(dst, dst + 1)))

    gid_of = np.empty(len(records), dtype=np.int64)
    for rec in records:
        gid = gids.get((id(rec.template), rec.ctx))
        if gid is None:  # pragma: no cover - internal invariant
            raise RuntimeError(
                f"recorded instance {rec.name} not in any expanded epoch"
            )
        gid_of[rec.rid] = gid

    # -- reachability: the per-instance vector clocks ------------------------
    reach = Reachability(consumers)
    position = np.empty(len(consumers), dtype=np.int64)
    position[reach.order] = np.arange(len(consumers))

    rid, names, write, lo, hi = zip(*rows) if rows else ((),) * 5
    codes: Dict[str, int] = {}
    region = [codes.setdefault(name, len(codes)) for name in names]
    observed = FootprintTable(list(codes), rid, region, write, lo, hi)
    touched = observed.canonical()

    _undeclared(report, env, records, observed, touched)
    _races(report, env, records, touched, reach, gid_of, position)
    return report


def _undeclared(
    report: CheckReport,
    env: Environment,
    records: Sequence[InstanceRecord],
    observed: FootprintTable,
    touched: FootprintTable,
) -> None:
    """Observed minus declared, per instance, region and side, in one
    :func:`~repro.core.regions.grouped_difference`: a write must be
    declared written, a read may be either.  *observed* is the raw
    table (rows in recording order), *touched* its canonical form."""
    codes = {name: code for code, name in enumerate(touched.names)}
    opaque: set = set()
    judged = np.zeros(len(records), dtype=bool)
    #: (rid, region code, side, offset, count, stride, elem_size) per
    #: declared op on a region the run touched and side it allows: a read
    #: may be declared either way, a write must be declared written.
    allows: List[Tuple[int, ...]] = []
    for rec in records:
        if rec.declared is None:
            if rec.template.accesses is None:
                opaque.add(rec.template.name)
            continue
        judged[rec.rid] = True
        for op in rec.declared:
            code = codes.get(op.region.name)
            if code is None:
                continue
            geometry = (op.offset, op.count, op.stride, op.elem_size)
            allows.append((rec.rid, code, 0, *geometry))
            if op.is_write:
                allows.append((rec.rid, code, 1, *geometry))
    report.opaque_templates = sorted(opaque)

    inst, region, write, *geometry = np.array(allows, dtype=np.int64).reshape(-1, 7).T
    op, lo, hi = sweep_intervals(*geometry)
    allowed = FootprintTable(
        touched.names, inst[op], region[op], write[op], lo, hi
    ).canonical()
    # Scalars are priced whole-region, so their footprint is not judged.
    judge = judged[touched.inst] & (touched.region != codes.get(SCALARS_REGION, -1))
    extra = grouped_difference(touched.take(judge), allowed)
    if not len(extra):
        return

    # Findings in record order; a record's regions in the order it first
    # touched them, its writes before its reads.
    key, start, stop = extra.groups()
    rest, side = np.divmod(key, 2)
    inst, region = np.divmod(rest, len(extra.names))
    touch = observed.key(observed.inst, observed.region, 0)
    order = np.argsort(touch, kind="stable")
    first = order[np.searchsorted(touch[order], extra.key(inst, region, 0))]
    for g in np.lexsort((-side, first, inst)).tolist():
        access = "write" if side[g] else "read"
        name = extra.names[region[g]]
        iv = np.stack([extra.lo[start[g] : stop[g]], extra.hi[start[g] : stop[g]]], axis=1)
        report.findings.append(
            Finding(
                kind="undeclared",
                region=name,
                intervals=_as_tuples(iv),
                instances=(records[inst[g]].name,),
                access=access,
                suggestion=_clause(access + "s", name, iv, env),
            )
        )


def _races(
    report: CheckReport,
    env: Environment,
    records: Sequence[InstanceRecord],
    touched: FootprintTable,
    reach: Reachability,
    gid_of: np.ndarray,
    position: np.ndarray,
) -> None:
    """Candidate pairs from one :func:`~repro.core.regions.conflict_sweep`
    per region in happens-before order (each instance's reads before its
    writes), then one batched :meth:`Reachability.ordered` query."""
    seq = position[gid_of[touched.inst]] * 2 + touched.write
    found = [(_NONE, _NONE, 0)]
    for r, rows in enumerate(touched.by_region()):
        c = conflict_sweep(
            seq[rows], touched.inst[rows], touched.write[rows],
            touched.lo[rows], touched.hi[rows],
        )
        found += [(c.writer, c.accessor, r), (c.reader, c.next_writer, r)]
    a, b, region = zip(*found)
    region = np.repeat(region, [len(x) for x in a])
    a, b = np.concatenate(a), np.concatenate(b)
    apart = a != b
    a, b, region = unique_rows(a[apart], b[apart], region[apart])
    racing = ~reach.ordered(gid_of[a], gid_of[b])
    a, b, region = a[racing], b[racing], region[racing]

    names = touched.names
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    order = np.lexsort((rank[region], position[gid_of[b]], position[gid_of[a]]))
    for a, b, r in zip(a[order].tolist(), b[order].tolist(), region[order].tolist()):
        ar, aw = touched.intervals(a, r, 0), touched.intervals(a, r, 1)
        br, bw = touched.intervals(b, r, 0), touched.intervals(b, r, 1)
        a_all = merge_intervals(np.concatenate([ar, aw]))
        b_all = merge_intervals(np.concatenate([br, bw]))
        conflict = merge_intervals(
            np.concatenate(
                [
                    intervals_intersection(aw, b_all),
                    intervals_intersection(a_all, bw),
                ]
            )
        )
        ww = len(intervals_intersection(aw, bw)) > 0
        wr = len(intervals_intersection(aw, br)) > 0
        rw = len(intervals_intersection(ar, bw)) > 0
        kinds = [k for k, hit in (("write/write", ww), ("write/read", wr), ("read/write", rw)) if hit]
        name = names[r]
        report.findings.append(
            Finding(
                kind="race",
                region=_region_label(name, conflict, env),
                intervals=_as_tuples(conflict),
                instances=(records[a].name, records[b].name),
                access=", ".join(kinds),
                suggestion=(
                    ""
                    if name == SCALARS_REGION
                    else _clause(
                        "writes" if ww or wr else "reads", name, conflict, env
                    )
                ),
            )
        )
