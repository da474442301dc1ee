"""Dynamic graphs: subflow spawning and conditional-arc resolution.

Static DDM programs fix their Synchronization Graph before execution;
this module holds the two objects that relax that (the Taskflow-style
extension, see PAPERS.md):

* :class:`Subflow` — a miniature graph builder (a
  :class:`~repro.core.graph.GraphBuilder`, like the program's own
  builder) a DThread *body* returns as its outcome.  The scheduler (the
  TSU at the instant of the completing thread's Post-Processing Phase,
  or the sequential oracle's fire order) expands it into a fresh graph
  *epoch*, cuts it into DDM Blocks and splices them after the spawning
  thread's block.  Because a spawned thread's body may itself return a
  Subflow, arbitrary data-dependent recursion (QSORT, adaptive
  quadrature) unrolls at run time.

* :class:`GraphEpoch` — the per-expansion bookkeeping for *conditional
  arcs*.  A conditional arc (``Arc.cond_key is not None``) counts in its
  consumer's Ready Count like any other arc, but only *delivers* if the
  producer's outcome equals its key.  When a producer resolves, every
  unchosen conditional arc dies; an instance all of whose incoming arcs
  are dead can never receive an input and is **squashed** — retired
  without running, counting toward block completion, its own out-arcs
  dying in turn (transitive squash).  An instance with at least one live
  input still fires once its Ready Count reaches zero: dead arcs give a
  *phantom* decrement ("resolved, no data"), so a join after an
  if/else diamond fires when the taken branch completes.

Squash is schedule-independent: whether an arc is dead depends only on
the producers' outcomes (functional values), never on timing, so every
backend and both memory models squash the same set — the
functional/timing split survives dynamism.

Epochs never share arcs: a spawned subflow synchronises with its parent
only through the Outlet→Inlet barrier of the block machinery, exactly
like a cross-block forward arc in a static program.
"""

from __future__ import annotations

from typing import Any

from repro.core.graph import ExpandedGraph, GraphBuilder

__all__ = ["Subflow", "GraphEpoch"]


class Subflow(GraphBuilder):
    """A dynamically spawned sub-graph, built inside a DThread body.

    Declares threads and arcs through the same
    :class:`~repro.core.graph.GraphBuilder` surface as
    :class:`~repro.core.builder.ProgramBuilder` (without environment or
    sequential sections — a subflow shares its program's
    :class:`~repro.core.environment.Environment`).  Bodies typically
    close over the data range they should work on::

        def body(env, ctx):
            if small_enough(env, ctx):
                return None            # leaf: no spawn
            sf = Subflow("refine")
            a = sf.thread("left", body=make_body(lo, mid))
            b = sf.thread("right", body=make_body(mid, hi))
            return sf                  # spawned after this block's Outlet

    Template ids are local to the subflow; the block splitter assigns
    globally unique block ids at spawn time.
    """

    def __init__(self, name: str = "subflow") -> None:
        super().__init__(name)

    # -- inspection ----------------------------------------------------------
    @property
    def ninstances(self) -> int:
        """Instances this subflow expands to (adapters price spawns by it)."""
        return sum(t.ninstances for t in self.graph.templates)

    def expand(self) -> ExpandedGraph:
        """Validate and expand (called by the scheduler at spawn time)."""
        return self.graph.expand()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Subflow {self.name!r} x{self.ninstances}>"


class GraphEpoch:
    """Conditional-arc bookkeeping for one expanded graph.

    Tracks, per instance, how many incoming arcs are still *live* (could
    yet deliver a real input).  ``resolve`` applies one completing
    producer's branch choice; arcs whose key was not chosen die, and any
    instance left with zero live inputs is squashed, killing its own
    out-arcs transitively.  The returned list (discovery order,
    deterministic) is what the scheduler retires.

    The squash set persists across the epoch's DDM Blocks: instances
    squashed while an earlier block runs are retired at load time when
    their block's Inlet fires (squash-at-load).
    """

    __slots__ = ("graph", "cond_out", "has_cond", "live_in", "dead", "squashed")

    def __init__(self, graph: ExpandedGraph) -> None:
        self.graph = graph
        self.cond_out = graph.cond_targets
        self.has_cond = bool(self.cond_out)
        # live_in and the per-run dead-arc counts only matter when
        # conditional arcs exist; static epochs skip the allocation (and
        # resolve() is never consulted).
        self.live_in = list(graph.ready_counts) if self.has_cond else None
        self.dead = [0] * len(graph.consumers.runs) if self.has_cond else None
        self.squashed: set[int] = set()

    def resolve(self, iid: int, key: Any) -> list[int]:
        """Apply the branch choice of completing instance *iid*.

        *key* is the instance's outcome (``None`` and Subflow outcomes
        choose no branch: every conditional arc of the producer dies).
        Returns newly squashed instance ids in deterministic discovery
        order; the caller retires in-block ones and leaves future-block
        ones for squash-at-load.
        """
        arcs = self.cond_out.get(iid)
        if not arcs:
            return []
        newly: list[int] = []
        for arc_key, runs in arcs.items():
            if arc_key == key:
                continue
            for run in runs:
                self._kill_run(run, newly)
        return newly

    def _kill_run(self, run: int, newly: list[int]) -> None:
        """One listing of *run* can no longer deliver.

        Counted per run, like a retirement: the members lose the run's
        live inputs at once, when its last listing dies — the only
        moment a per-pair count could have reached zero through it.
        """
        consumers = self.graph.consumers
        self.dead[run] += 1
        tokens = consumers.producers[run]
        if self.dead[run] != tokens:
            return
        live_in, squashed = self.live_in, self.squashed
        for target in consumers.runs[run]:
            live_in[target] -= tokens
            if (
                live_in[target] == 0
                and target not in squashed
                and self.graph.ready_counts[target] > 0
            ):
                # No live inputs left (entry instances, in-degree 0, are
                # exempt): squash, and kill every out-arc — conditional
                # arcs of a squashed producer die for all keys, since it
                # will never complete and choose one.
                squashed.add(target)
                newly.append(target)
                for out in consumers.out[target]:
                    self._kill_run(out, newly)
