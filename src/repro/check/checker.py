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

Candidate conflict pairs come from a last-writer/reader-set sweep over
coordinate-compressed segments in a topological linearisation of the
happens-before DAG, indexed through the window of segments each
footprint covers (:meth:`~repro.core.regions.SegmentSpace.window`, the
primitive the static deriver's sweep shares); coalescing is sound by
chain transitivity (if W1 → W2 → W3 on one segment and both adjacent
pairs are ordered, so is (W1, W3)).
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
    EMPTY_INTERVALS,
    SegmentSpace,
    distinct,
    intervals_difference,
    intervals_intersection,
    merge_intervals,
    merged_footprints,
    op_intervals,
)

__all__ = [
    "InstanceRecord",
    "Finding",
    "CheckReport",
    "RaceCheckError",
    "analyze",
]

SCALARS_REGION = "__scalars__"


class RaceCheckError(RuntimeError):
    """Raised when a gated run (``JobSpec.check``) has findings."""

    def __init__(self, report: "CheckReport") -> None:
        super().__init__(report.format())
        self.report = report


@dataclass
class InstanceRecord:
    """Observed footprint of one DThread instance."""

    template: DThreadTemplate
    ctx: Context
    #: Recorded ops in program order: (region, is_write, byte intervals).
    touched: List[Tuple[str, bool, np.ndarray]] = field(default_factory=list)
    #: Declared summary, evaluated right after the body (None = opaque).
    declared: Optional[object] = None

    @property
    def name(self) -> str:
        return f"{self.template.name}[{self.ctx}]"

    @property
    def ops(self) -> int:
        return len(self.touched)

    def add(self, region: str, intervals: np.ndarray, is_write: bool) -> None:
        self.touched.append((region, is_write, intervals))


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
) -> CheckReport:
    """Judge recorded footprints against declarations and happens-before.

    *epochs* lists every expanded graph the run executed, each paired
    with the record of the instance that spawned it (``None`` for the
    root).  *records* is every instance that actually ran.
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

    rec_gid: Dict[int, InstanceRecord] = {}
    for rec in records:
        gid = gids.get((id(rec.template), rec.ctx))
        if gid is None:  # pragma: no cover - internal invariant
            raise RuntimeError(
                f"recorded instance {rec.name} not in any expanded epoch"
            )
        rec_gid[gid] = rec

    # -- reachability: the per-instance vector clocks ------------------------
    reach = Reachability(consumers)
    order = reach.order

    # -- undeclared/out-of-bounds accesses -----------------------------------
    opaque: set = set()
    footprints: Dict[int, Dict[str, Tuple[np.ndarray, np.ndarray]]] = {}
    for gid, rec in rec_gid.items():
        fp = footprints[gid] = merged_footprints(rec.touched)
        if rec.declared is None:
            if rec.template.accesses is None:
                opaque.add(rec.template.name)
            continue
        decl = merged_footprints(
            (op.region.name, op.is_write, op_intervals(op)) for op in rec.declared
        )
        for region, (obs_r, obs_w) in fp.items():
            if region == SCALARS_REGION:
                continue  # scalars are priced whole-region; not judged
            decl_r, decl_w = decl.get(region, (EMPTY_INTERVALS, EMPTY_INTERVALS))
            # A write must be declared written; a read may be either.
            for access, obs, allowed in (
                ("write", obs_w, [decl_w]),
                ("read", obs_r, [decl_r, decl_w]),
            ):
                if not len(obs):
                    continue
                extra = intervals_difference(
                    obs, merge_intervals(np.concatenate(allowed))
                )
                if len(extra):
                    report.findings.append(
                        Finding(
                            kind="undeclared",
                            region=region,
                            intervals=_as_tuples(extra),
                            instances=(rec.name,),
                            access=access,
                            suggestion=_clause(access + "s", region, extra, env),
                        )
                    )
    report.opaque_templates = sorted(opaque)

    # -- races ----------------------------------------------------------------
    position = {gid: i for i, gid in enumerate(order)}
    by_region: Dict[str, List[int]] = {}
    for gid, fp in footprints.items():
        for region in fp:
            by_region.setdefault(region, []).append(gid)

    candidates: set = set()
    for region, touching in by_region.items():
        if len(touching) < 2:
            continue
        touching.sort(key=position.__getitem__)
        space = SegmentSpace.from_intervals(
            iv
            for gid in touching
            for iv in footprints[gid][region]
        )
        nseg = space.nsegments
        if nseg == 0:
            continue
        last_writer = np.full(nseg, -1, dtype=np.int64)
        reader_id = np.zeros(nseg, dtype=np.int64)
        reader_sets: List[frozenset] = [frozenset()]
        for gid in touching:
            obs_r, obs_w = footprints[gid][region]
            rsel = space.window(obs_r)
            wsel = space.window(obs_w)
            for prior in distinct(last_writer[rsel]) + distinct(last_writer[wsel]):
                if prior >= 0 and prior != gid:
                    candidates.add((prior, gid, region))
            # Read before write: a segment the instance also writes ends
            # up with no readers, as after any other write.
            current = reader_id[rsel]
            for rid in distinct(current):
                current[current == rid] = len(reader_sets)
                reader_sets.append(reader_sets[rid] | {gid})
            reader_id[rsel] = current
            for rid in distinct(reader_id[wsel]):
                for reader in reader_sets[rid]:
                    if reader != gid:
                        candidates.add((reader, gid, region))
            last_writer[wsel] = gid
            reader_id[wsel] = 0

    for a, b, region in sorted(
        candidates, key=lambda c: (position[c[0]], position[c[1]], c[2])
    ):
        if reach.ordered(a, b):
            continue
        ar, aw = footprints[a][region]
        br, bw = footprints[b][region]
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
        if not len(conflict):  # pragma: no cover - sweep only yields conflicts
            continue
        ww = len(intervals_intersection(aw, bw)) > 0
        wr = len(intervals_intersection(aw, br)) > 0
        rw = len(intervals_intersection(ar, bw)) > 0
        kinds = [k for k, hit in (("write/write", ww), ("write/read", wr), ("read/write", rw)) if hit]
        report.findings.append(
            Finding(
                kind="race",
                region=_region_label(region, conflict, env),
                intervals=_as_tuples(conflict),
                instances=(rec_gid[a].name, rec_gid[b].name),
                access=", ".join(kinds),
                suggestion=(
                    ""
                    if region == SCALARS_REGION
                    else _clause(
                        "writes" if ww or wr else "reads", region, conflict, env
                    )
                ),
            )
        )

    return report
