"""DThreads: templates and dynamic instances.

A *DThread template* is a static node of the Synchronization Graph — a
section of code plus scheduling metadata.  Loop-parallel templates carry a
list of contexts; each context yields one dynamic *DThread instance*, the
unit the TSU actually schedules (paper §2).

Every template carries three callables:

``body(env, ctx)``
    The functional payload — real Python code mutating the shared
    :class:`~repro.core.environment.Environment`.  This is what executes
    in control-flow order once the instance fires.  Its return value is
    the instance's *outcome*: ``None`` for ordinary threads, a
    :class:`~repro.core.dynamic.Subflow` to spawn a dynamic sub-graph, or
    a branch key selecting among the template's conditional arcs.
``cost(env, ctx) -> int``
    Compute cycles charged by the timing simulation (pure CPU work,
    excluding memory stalls).
``accesses(env, ctx) -> AccessSummary``
    Declared memory behaviour, priced by the cache/coherence models.

``cost``/``accesses`` default to a small constant and an empty summary, so
purely functional runs (and the native threaded backend) never need them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.core.context import Context, normalize_context
from repro.sim.accesses import AccessSummary

__all__ = ["ThreadKind", "DThreadTemplate", "DThreadInstance", "DEFAULT_THREAD_COST"]

#: Fallback compute cost (cycles) when a template declares none: roughly a
#: short body of tens of instructions.
DEFAULT_THREAD_COST = 50


class ThreadKind(enum.Enum):
    """Role of a DThread within its DDM Block."""

    APPLICATION = "application"
    INLET = "inlet"
    OUTLET = "outlet"


@dataclass
class DThreadTemplate:
    """Static description of a DThread (one Synchronization Graph node)."""

    tid: int
    name: str
    body: Optional[Callable[[Any, Context], None]] = None
    contexts: Sequence[Context] = (0,)
    cost: Optional[Callable[[Any, Context], int]] = None
    accesses: Optional[Callable[[Any, Context], AccessSummary]] = None
    kind: ThreadKind = ThreadKind.APPLICATION
    #: Optional placement hint: (ctx, nkernels) -> kernel index.  Used by
    #: the TSU's locality policy when building the Thread-to-Kernel Table.
    affinity: Optional[Callable[[Context, int], int]] = None

    def __post_init__(self) -> None:
        if self.tid < 0:
            raise ValueError(f"thread id must be non-negative, got {self.tid}")
        ctxs = [normalize_context(c) for c in self.contexts]
        if len(set(ctxs)) != len(ctxs):
            raise ValueError(f"duplicate contexts in template {self.name!r}")
        if not ctxs:
            raise ValueError(f"template {self.name!r} has no contexts")
        self.contexts = ctxs

    @property
    def ninstances(self) -> int:
        return len(self.contexts)

    def run(self, env: Any, ctx: Context) -> Any:
        """Execute the functional payload and return its outcome.

        The outcome (the body's return value) is what the dynamic-graph
        machinery consumes: a :class:`~repro.core.dynamic.Subflow` spawns
        a sub-graph, any other non-``None`` value is a branch key for the
        template's conditional arcs.  Static bodies return ``None``.
        """
        if self.body is not None:
            return self.body(env, ctx)
        return None

    def compute_cost(self, env: Any, ctx: Context) -> int:
        if self.cost is None:
            return DEFAULT_THREAD_COST
        return int(self.cost(env, ctx))

    def access_summary(self, env: Any, ctx: Context) -> AccessSummary:
        if self.accesses is None:
            return AccessSummary()
        return self.accesses(env, ctx)

    def __repr__(self) -> str:
        return (
            f"<DThreadTemplate #{self.tid} {self.name!r} "
            f"x{self.ninstances} {self.kind.value}>"
        )


@dataclass(frozen=True)
class DThreadInstance:
    """One dynamic DThread: ``(template, context)`` plus its dense id.

    ``iid`` is assigned during graph expansion and is the identifier the
    TSU tracks (Ready Counts, consumer runs, the TKT).
    """

    iid: int
    template: DThreadTemplate
    ctx: Context

    @property
    def name(self) -> str:
        return f"{self.template.name}[{self.ctx}]"

    def __repr__(self) -> str:
        return f"<DThreadInstance {self.iid}: {self.name}>"
