"""RunRecord: the schema-versioned, picklable telemetry payload of one run.

A :class:`~repro.runtime.stats.RunResult` is a *live* object — a record
plus the program's mutated :class:`~repro.core.environment.Environment`,
so callers can verify functional output.  A :class:`RunRecord` is what is
left once the run is over and only the *measurement* matters: identity,
cycle/wall totals, per-kernel stats, memory-system stats, the unified
counter registry, and any collected spans.  It is what crosses the
:mod:`repro.exec` pool/cache boundary (records are env-free by
construction, so nothing needs stripping) and what the analysis layer
consumes.

The record is **schema-versioned**: :data:`SCHEMA_VERSION` must be bumped
whenever the field set of the record (or of any type embedded in it)
changes.  ``tools/check_record_schema.py`` enforces this against a golden
fixture, and the exec cache refuses to return records whose version does
not match — a stale cache can never be deserialised silently.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.counters import Counters
from repro.obs.probe import Span
from repro.sim.cache import CacheStats
from repro.sim.cpu import CoreStats

__all__ = [
    "SCHEMA_VERSION",
    "KernelAccount",
    "KernelStats",
    "RunRecord",
    "record_schema",
    "verify_schema_fixture",
]

#: Bump whenever the field set of RunRecord or an embedded type changes.
#: v2: added ``nnodes`` (TFluxDist) alongside the ``net.*`` counter
#: namespace.
#: v3: added ``topology`` (the fabric wiring of a TFluxDist run)
#: alongside the per-hop congestion counters ``net.hops`` /
#: ``net.link_queue_cycles``.
#: v4: dropped ``CacheStats.writebacks``, which no model priced.
SCHEMA_VERSION = 4


@dataclass
class KernelStats:
    """Per-kernel execution summary.

    ``core`` cycle fields hold simulated cycles on the simulated machines
    and microseconds of wall time on the native backend — one integer time
    axis either way.
    """

    kernel_id: int
    dthreads: int = 0
    fetches: int = 0
    waits: int = 0
    core: CoreStats = field(default_factory=CoreStats)


class KernelAccount:
    """The live per-kernel accounting object every backend charges into.

    One instance per kernel per run, shared between the backend (which
    charges compute/memory/runtime/idle time on its own axis — cycles or
    microseconds) and the Kernel step machine
    (:func:`repro.runtime.core.kernel_loop`, which counts fetches, waits
    and completed DThreads).  It replaces the three structs the backends
    used to keep in parallel (a mutable ``KernelStats``, the native
    backend's wall-clock ``_KernelClock``, and the simulated ``Core``
    accumulator); :meth:`snapshot` freezes it into the
    :class:`KernelStats` record that rides in the :class:`RunRecord`.

    Charge amounts may be fractional (the native backend charges µs
    floats); totals are truncated to int only at snapshot time, so
    many small charges are not individually rounded away.
    """

    __slots__ = (
        "kernel_id", "dthreads", "fetches", "waits",
        "compute", "memory", "runtime", "idle",
    )

    def __init__(self, kernel_id: int) -> None:
        self.kernel_id = kernel_id
        self.dthreads = 0
        self.fetches = 0
        self.waits = 0
        self.compute = 0.0
        self.memory = 0.0
        self.runtime = 0.0
        self.idle = 0.0

    # -- time charging (backend's axis: cycles or µs) -----------------------
    def charge_compute(self, amount: float) -> None:
        self.compute += amount

    def charge_memory(self, amount: float) -> None:
        self.memory += amount

    def charge_runtime(self, amount: float) -> None:
        self.runtime += amount

    def charge_idle(self, amount: float) -> None:
        self.idle += amount

    # -- freezing ------------------------------------------------------------
    def snapshot(self) -> KernelStats:
        """The immutable per-kernel record of this account."""
        return KernelStats(
            kernel_id=self.kernel_id,
            dthreads=self.dthreads,
            fetches=self.fetches,
            waits=self.waits,
            core=CoreStats(
                compute_cycles=int(self.compute),
                memory_cycles=int(self.memory),
                runtime_cycles=int(self.runtime),
                idle_cycles=int(self.idle),
                dthreads_executed=self.dthreads,
            ),
        )

    def __repr__(self) -> str:
        return (
            f"KernelAccount(k{self.kernel_id}: dthreads={self.dthreads}, "
            f"fetches={self.fetches}, waits={self.waits})"
        )


@dataclass
class RunRecord:
    """Everything measured about one run, and nothing functional."""

    program: str
    platform: str
    nkernels: int
    cycles: int
    #: Cycles of the parallelised region only (prologue/epilogue excluded)
    #: — what the paper measures with gettimeofday (§5).  0 when the
    #: program has no sequential sections (``measured_cycles`` falls back).
    region_cycles: int = 0
    #: Wall-clock seconds for native runs (0.0 for simulated runs).
    wall_seconds: float = 0.0
    kernels: list[KernelStats] = field(default_factory=list)
    memory: Optional[CacheStats] = None
    #: The unified counter registry (tsu.*, tub.*, mmi.*, ppe.*, dma.*, ...)
    #: published by the TSU Group, the protocol adapter and the runtime.
    counters: Counters = field(default_factory=Counters)
    #: Spans collected by an attached probe (empty unless one was attached).
    spans: list[Span] = field(default_factory=list)
    #: Message-passing nodes of a TFluxDist run (1 on single-node platforms).
    nnodes: int = 1
    #: Fabric wiring of a TFluxDist run, e.g. ``"fullmesh"`` or
    #: ``"fattree(pod=8,up=8)"`` ("" on single-node platforms).
    topology: str = ""
    schema_version: int = SCHEMA_VERSION

    # -- the paper's derived quantities ------------------------------------
    @property
    def measured_cycles(self) -> int:
        """The §5 measured quantity: region cycles, else total cycles."""
        return self.region_cycles or self.cycles

    @property
    def total_dthreads(self) -> int:
        return sum(k.dthreads for k in self.kernels)

    # -- JSON round trip ---------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """A plain-JSON form of the record (inverse: :meth:`from_json_dict`)."""
        return {
            "schema_version": self.schema_version,
            "program": self.program,
            "platform": self.platform,
            "nkernels": self.nkernels,
            "nnodes": self.nnodes,
            "topology": self.topology,
            "cycles": self.cycles,
            "region_cycles": self.region_cycles,
            "wall_seconds": self.wall_seconds,
            "kernels": [
                {
                    "kernel_id": k.kernel_id,
                    "dthreads": k.dthreads,
                    "fetches": k.fetches,
                    "waits": k.waits,
                    "core": dataclasses.asdict(k.core),
                }
                for k in self.kernels
            ],
            "memory": dataclasses.asdict(self.memory) if self.memory else None,
            "counters": self.counters.as_dict(),
            "spans": [dataclasses.asdict(s) for s in self.spans],
        }

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "RunRecord":
        version = data["schema_version"]
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"RunRecord schema {version} != supported {SCHEMA_VERSION}"
            )
        return cls(
            program=data["program"],
            platform=data["platform"],
            nkernels=data["nkernels"],
            cycles=data["cycles"],
            region_cycles=data["region_cycles"],
            wall_seconds=data["wall_seconds"],
            kernels=[
                KernelStats(
                    kernel_id=k["kernel_id"],
                    dthreads=k["dthreads"],
                    fetches=k["fetches"],
                    waits=k["waits"],
                    core=CoreStats(**k["core"]),
                )
                for k in data["kernels"]
            ],
            memory=CacheStats(**data["memory"]) if data["memory"] else None,
            counters=Counters(data["counters"]),
            spans=[Span(**s) for s in data["spans"]],
            nnodes=data["nnodes"],
            topology=data["topology"],
            schema_version=version,
        )


# -- schema governance ---------------------------------------------------------
def record_schema() -> dict[str, list[str]]:
    """The record's complete field set: RunRecord plus every embedded type.

    This is what the golden fixture (``tests/data/run_record_schema.json``)
    pins; any change here without a :data:`SCHEMA_VERSION` bump fails
    ``tools/check_record_schema.py``.
    """
    return {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (RunRecord, KernelStats, CoreStats, CacheStats, Span)
    }


def verify_schema_fixture(fixture: dict[str, Any]) -> list[str]:
    """Compare the live schema against a golden *fixture* dict.

    Returns a list of human-readable problems (empty = consistent).  The
    rules: a changed field set requires a version bump, and a version bump
    requires regenerating the fixture — so the fixture diff and the bump
    always land in the same commit.
    """
    problems: list[str] = []
    golden_version = fixture.get("schema_version")
    golden_fields = fixture.get("fields", {})
    current = record_schema()
    fields_changed = golden_fields != current
    if fields_changed and golden_version == SCHEMA_VERSION:
        for name in sorted(set(golden_fields) | set(current)):
            if golden_fields.get(name) != current.get(name):
                problems.append(
                    f"{name} fields changed: {golden_fields.get(name)} -> "
                    f"{current.get(name)}"
                )
        problems.append(
            "RunRecord field set changed without a SCHEMA_VERSION bump: "
            f"bump repro.obs.record.SCHEMA_VERSION (still {SCHEMA_VERSION}) "
            "and regenerate the fixture with "
            "`python tools/check_record_schema.py --update`"
        )
    elif golden_version != SCHEMA_VERSION:
        problems.append(
            f"golden fixture pins schema {golden_version} but the code is at "
            f"{SCHEMA_VERSION}: regenerate the fixture with "
            "`python tools/check_record_schema.py --update`"
        )
    return problems
