"""The complete DDM program object.

A :class:`DDMProgram` bundles the Synchronization Graph, the shared-data
:class:`~repro.core.environment.Environment`, and optional sequential
prologue/epilogue sections (work the original program performs outside the
parallelised region — e.g. QSORT's array initialisation, which the paper
discusses as a source of cache hand-off cost in §6.2.2).

Programs are machine-independent; any TFlux platform can execute one — the
virtualization the paper claims.  ``blocks()`` produces the TSU-capacity
partition; ``steps()`` executes the whole program in dependency order on
the calling thread, which is both the correctness oracle for the tests
(``run_sequential()``) and the functional part of the speedup baseline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.block import DDMBlock, split_into_blocks
from repro.core.dynamic import GraphEpoch, Subflow
from repro.core.environment import Environment
from repro.core.graph import ExpandedGraph, SynchronizationGraph

__all__ = ["DDMProgram", "ProgramReusedError", "SequentialSection"]


class ProgramReusedError(RuntimeError):
    """A DDMProgram was executed twice.

    Programs are single-run objects: executing one mutates its
    :class:`~repro.core.environment.Environment` in place, so a second
    run would start from post-run state and silently compute garbage.
    Build a fresh program (call the builder / ``bench.build()`` again)
    for every execution.
    """


@dataclass
class SequentialSection:
    """A non-parallelised section executed by one core.

    ``cost``/``accesses`` mirror the DThread conventions and price the
    section in the timing simulation (it runs on a single kernel before or
    after the dataflow region).
    """

    name: str
    body: Optional[Callable[[Environment], None]] = None
    cost: Optional[Callable[[Environment], int]] = None
    accesses: Optional[Callable[[Environment], Any]] = None

    def run(self, env: Environment) -> None:
        if self.body is not None:
            self.body(env)

    def compute_cost(self, env: Environment) -> int:
        return int(self.cost(env)) if self.cost is not None else 0


@dataclass
class DDMProgram:
    """A DDM executable: graph + environment + sequential sections."""

    name: str
    graph: SynchronizationGraph
    env: Environment
    prologue: list[SequentialSection] = field(default_factory=list)
    epilogue: list[SequentialSection] = field(default_factory=list)

    _expanded: Optional[ExpandedGraph] = field(default=None, init=False, repr=False)
    _executed: bool = field(default=False, init=False, repr=False)

    # -- single-run guard -----------------------------------------------------
    def mark_executed(self) -> None:
        """Claim this program for one execution (runtimes call this).

        Raises :class:`ProgramReusedError` on the second claim: the
        Environment was already mutated by the first run.
        """
        if self._executed:
            raise ProgramReusedError(
                f"program {self.name!r} was already executed and its "
                "Environment mutated; build a fresh program per run"
            )
        self._executed = True

    # -- structure ----------------------------------------------------------
    def expanded(self) -> ExpandedGraph:
        """The (cached) instance-level graph."""
        if self._expanded is None:
            self._expanded = self.graph.expand()
        return self._expanded

    def blocks(self, tsu_capacity: Optional[int] = None) -> list[DDMBlock]:
        return split_into_blocks(self.expanded(), tsu_capacity)

    @property
    def ninstances(self) -> int:
        return self.expanded().ninstances

    # -- execution -----------------------------------------------------------
    def fire_order(self):
        """Yield instances in deterministic dataflow order.

        Dataflow firing with a priority queue keyed on instance id — the
        reference schedule of the sequential loop (:meth:`steps`), which
        is both the functional oracle and the timed §5 baseline's
        functional half.  Raises on
        deadlock (an instance whose producers never fire).  It shares no
        loop with ``TSUGroup._post_process`` on purpose: every backend's
        schedule is compared with it, so it must not fail the way they do.

        Dynamic graphs: the generator is outcome-driven — after running
        an instance's body the caller sends its outcome back
        (``next_inst = gen.send(outcome)``).  A :class:`Subflow` outcome
        queues a fresh epoch, executed after the spawning epoch drains
        (mirroring the TSU's Outlet→Inlet barrier); a branch-key outcome
        resolves the instance's conditional arcs, squashed instances are
        skipped and their dead arcs give phantom decrements.  Plain
        iteration (``for inst in prog.fire_order()``) still works for
        static programs — ``next()`` sends ``None``.

        Consumers are counted per run (see ``ConsumerRuns``): a barrier's
        members drop once, when its last producer retires.
        """
        pending: list[GraphEpoch] = [GraphEpoch(self.expanded())]
        epoch_idx = 0
        while epoch_idx < len(pending):
            epoch = pending[epoch_idx]
            epoch_idx += 1
            g = epoch.graph
            squashed = epoch.squashed
            consumers = g.consumers
            out, runs, producers = consumers.out, consumers.runs, consumers.producers
            hits = [0] * len(runs)
            ready = list(g.ready_counts)
            heap = list(g.entry)
            heapq.heapify(heap)
            executed = 0
            retired = 0
            while heap:
                iid = heapq.heappop(heap)
                outcome = yield g.instances[iid]
                executed += 1
                if isinstance(outcome, Subflow):
                    pending.append(GraphEpoch(outcome.expand()))
                    key = None
                else:
                    key = outcome
                newly_squashed = (
                    epoch.resolve(iid, key) if epoch.has_cond else []
                )
                # Retire squashed instances: they count as done and their
                # dead out-arcs phantom-decrement surviving consumers.
                retired += len(newly_squashed)
                for src in (*newly_squashed, iid):
                    for r in out[src]:
                        hits[r] += 1
                        if hits[r] != producers[r]:
                            continue  # a shared run waits for its last producer
                        tokens = producers[r]
                        for dst in runs[r]:
                            if dst in squashed:
                                continue
                            ready[dst] -= tokens
                            if ready[dst] == 0:
                                heapq.heappush(heap, dst)
            if executed + retired != g.ninstances:
                stuck = [
                    g.instances[i].name
                    for i in range(g.ninstances)
                    if ready[i] > 0 and i not in squashed
                ]
                raise RuntimeError(
                    f"deadlock: {len(stuck)} instances never fired, "
                    f"e.g. {stuck[:5]}"
                )

    def steps(self):
        """Run the original sequential program, one step at a time.

        This is the reference semantics, and the only sequential loop:
        prologue sections, then every DThread instance in the
        :meth:`fire_order` schedule (outcomes fed back so subflows spawn
        and conditional arcs resolve), then epilogue sections, all on
        the calling thread.  Each executed section or instance is
        yielded right after its body ran, so a caller can read its cost
        and access callbacks against the live Environment.  The program
        is claimed (:meth:`mark_executed`) before any body runs.
        """
        self.mark_executed()
        for section in self.prologue:
            section.run(self.env)
            yield section
        order = self.fire_order()
        outcome = None
        try:
            while True:
                inst = order.send(outcome)
                outcome = inst.template.run(self.env, inst.ctx)
                yield inst
        except StopIteration:
            pass
        for section in self.epilogue:
            section.run(self.env)
            yield section

    def run_sequential(self) -> Environment:
        """Execute the whole program by draining :meth:`steps`; tests
        compare platform runs against this oracle."""
        for _ in self.steps():
            pass
        return self.env
