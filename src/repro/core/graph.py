"""The Synchronization Graph and its instance-level expansion.

"The dependencies among the DThreads in a DDM program are expressed by its
Synchronization Graph, the nodes of which correspond to the program's
DThreads while its arcs to data dependencies between them" (paper §2).

Arcs connect *templates* with a context mapping describing which dynamic
instances depend on which:

``"same"``
    instance ``(p, ctx)`` feeds ``(c, ctx)`` — parallel loops in lockstep;
``"all"``
    every instance of the producer feeds every instance of the consumer —
    reductions, barriers and phase changes;
callable
    ``mapping(producer_ctx) -> iterable of consumer contexts`` — arbitrary
    shapes (e.g. the QSORT merge tree).

:meth:`SynchronizationGraph.expand` flattens templates×contexts into dense
:class:`~repro.core.dthread.DThreadInstance` ids and produces, for each
instance, its *Ready Count* (number of producer instances) and its
consumers — exactly the metadata the Inlet DThread loads into the TSU.

Consumers are :class:`ConsumerRuns`: runs of consecutive instance ids.
An unconditional ``"all"`` arc is *one* run that every producer instance
lists; any other arc gives each instance pair a run of 1.
Every reader counts a shared run's retirements and updates its members
once, when the last producer retires, instead of once per instance pair.

:class:`GraphBuilder` is the one surface on which threads and arcs are
*declared* (``thread`` / ``depends`` / ``cond``); a whole program
(:class:`~repro.core.builder.ProgramBuilder`) and a dynamically spawned
sub-graph (:class:`~repro.core.dynamic.Subflow`) are both built through
it, the way Taskflow builds ``Taskflow`` and ``Subflow`` through one
``FlowBuilder``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Union

from repro.core.context import Context, normalize_context
from repro.core.dthread import DThreadInstance, DThreadTemplate, ThreadKind

__all__ = [
    "Arc",
    "ConsumerRuns",
    "SynchronizationGraph",
    "ExpandedGraph",
    "GraphBuilder",
    "GraphError",
]

Mapping = Union[str, Callable[[Context], Iterable[Context]]]
#: A template named by object or by id.
TemplateRef = Union[int, DThreadTemplate]


class GraphError(ValueError):
    """Raised for malformed synchronization graphs."""


def _same_mapping(a: "Mapping", b: "Mapping") -> bool:
    """Whether two arc mappings contribute identical Ready Counts.

    String mappings compare by value, derived
    :class:`~repro.core.deps.ContextMap` mappings by table, arbitrary
    callables by identity (the one comparison that can never misjudge
    an opaque function).  An *identical* re-declaration is a legitimate
    double token; anything else changes the consumer's Ready Count.
    """
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    table_a = getattr(a, "table", None)
    table_b = getattr(b, "table", None)
    if table_a is not None and table_b is not None:
        return table_a == table_b
    return False


def _describe_mapping(m: "Mapping") -> str:
    if isinstance(m, str):
        return repr(m)
    if getattr(m, "table", None) is not None:
        return f"derived {type(m).__name__}"
    return getattr(m, "__name__", None) or repr(m)


@dataclass(frozen=True)
class Arc:
    """A producer→consumer dependence between two templates.

    ``cond_key`` makes the arc *conditional*: it counts in the
    consumer's Ready Count like any arc, but only delivers a real input
    when the producer's outcome (its body's return value) equals the
    key.  Unchosen conditional arcs die at resolution time — the
    squash semantics live in :mod:`repro.core.dynamic`.
    """

    producer: int
    consumer: int
    mapping: Mapping = "same"
    cond_key: Any = None

    def consumer_contexts(
        self, producer_ctx: Context, consumer: DThreadTemplate
    ) -> list[Context]:
        if self.mapping == "same":
            return [producer_ctx]
        if self.mapping == "all":
            return list(consumer.contexts)
        if callable(self.mapping):
            return [normalize_context(c) for c in self.mapping(producer_ctx)]
        raise GraphError(f"unknown arc mapping {self.mapping!r}")


class ConsumerRuns:
    """Every node's consumers, as runs of consecutive node ids.

    ``out[u]`` lists the ids of the runs node *u* feeds, in arc order;
    ``runs[r]`` is run *r*'s members (a ``range``), ``producers[r]``
    how many times nodes list it, and ``fanouts[u]`` the tokens one
    retirement of *u* delivers (its instance pairs).

    Every walk counts runs, not pairs: it keeps a hit count per run,
    bumps it for each run a retiring node lists, and when a run's hits
    reach its producer count, takes ``producers[r]`` off each member at
    once, in member order.  A member can only become ready once every
    run that feeds it has completed, so it becomes ready on the same
    retirement, at the same position, as under a walk over every
    instance pair — the fire order, the block cut, the TSU's
    ``newly_ready`` and the squash order do not move.  The walks inline
    the count (it is their inner loop); ``tests/test_arc_runs.py`` holds
    each to the per-pair walk.
    """

    __slots__ = ("out", "runs", "producers", "fanouts")

    def __init__(self, nnodes: int) -> None:
        self.out: list[list[int]] = [[] for _ in range(nnodes)]
        self.runs: list[range] = []
        self.producers: list[int] = []
        self.fanouts: list[int] = [0] * nnodes

    def __len__(self) -> int:
        return len(self.out)

    def add_run(self, members: range) -> int:
        """A new run nobody lists yet; returns its id."""
        self.runs.append(members)
        self.producers.append(0)
        return len(self.runs) - 1

    def feed(self, u: int, run: int) -> None:
        """Node *u* lists *run* (once more: a double token lists it twice)."""
        self.out[u].append(run)
        self.producers[run] += 1
        self.fanouts[u] += len(self.runs[run])

    def feed_all(self, us: range, run: int) -> None:
        """Every node of *us* lists *run* once: :meth:`feed` in one loop,
        for a barrier's shared run."""
        out, fanouts, width = self.out, self.fanouts, len(self.runs[run])
        for u in us:
            out[u].append(run)
            fanouts[u] += width
        self.producers[run] += len(us)

    def runs_of(self, u: int) -> list[range]:
        """The members of every run *u* feeds, in arc order."""
        runs = self.runs
        return [runs[r] for r in self.out[u]]

    def indegrees(self) -> list[int]:
        """Tokens each node is owed by all runs: its Ready Count."""
        indeg = [0] * len(self.out)
        for members, p in zip(self.runs, self.producers):
            for v in members:
                indeg[v] += p
        return indeg


@dataclass
class ExpandedGraph:
    """Instance-level graph: the TSU-loadable metadata."""

    instances: list[DThreadInstance]
    ready_counts: list[int]
    consumers: ConsumerRuns
    #: iid of every instance with Ready Count zero (the entry fringe).
    entry: list[int]
    #: (template tid, ctx) -> iid
    index: dict[tuple[int, Context], int]
    #: Conditional-arc table: producer iid -> {branch key: ids of its runs
    #: of 1 in ``consumers``}.  Empty for purely static graphs (the
    #: common case).
    cond_targets: dict[int, dict[Any, list[int]]] = field(default_factory=dict)
    #: The ids of the runs each arc of the graph added, in arc order.
    arc_runs: list[range] = field(default_factory=list)

    @property
    def ninstances(self) -> int:
        return len(self.instances)

    def check_invariants(self) -> None:
        """Structural sanity: counts match arcs, no dangling consumers."""
        check_sync_counts(self.ready_counts, self.consumers, self.entry)


def check_sync_counts(ready_counts, consumers: ConsumerRuns, entry) -> None:
    """Ready Counts equal incoming tokens, no run leaves the node range,
    each run's producer count is its listings, *entry* is the zero-count
    fringe: what an :class:`ExpandedGraph` and a
    :class:`~repro.core.block.DDMBlock` (over local ids) both keep."""
    n = len(ready_counts)
    assert len(consumers) == n, f"consumers of {len(consumers)} nodes, not {n}"
    for r, members in enumerate(consumers.runs):
        assert members.step == 1 and 0 <= members.start <= members.stop <= n, (
            f"dangling run {r}: {members}"
        )
    listed = [0] * len(consumers.runs)
    for outs in consumers.out:
        for r in outs:
            listed[r] += 1
    assert listed == consumers.producers, "run producer counts != listings"
    runs = consumers.runs
    assert consumers.fanouts == [
        sum(len(runs[r]) for r in outs) for outs in consumers.out
    ], "fanouts != listed run lengths"
    incoming = consumers.indegrees()
    for iid in range(n):
        assert incoming[iid] == ready_counts[iid], (
            f"instance {iid} ready count {ready_counts[iid]} "
            f"!= incoming arcs {incoming[iid]}"
        )
    assert sorted(entry) == [iid for iid in range(n) if ready_counts[iid] == 0]


class SynchronizationGraph:
    """Template-level synchronization graph with arc mappings."""

    def __init__(self) -> None:
        self._templates: dict[int, DThreadTemplate] = {}
        self._arcs: list[Arc] = []

    # -- construction -------------------------------------------------------
    def add_template(self, template: DThreadTemplate) -> DThreadTemplate:
        if template.tid in self._templates:
            raise GraphError(f"duplicate template id {template.tid}")
        self._templates[template.tid] = template
        return template

    def add_arc(
        self,
        producer: int,
        consumer: int,
        mapping: Mapping = "same",
        cond_key: Any = None,
    ) -> Arc:
        for tid in (producer, consumer):
            if tid not in self._templates:
                raise GraphError(f"arc references unknown template {tid}")
        if producer == consumer:
            raise GraphError("self-dependence arcs are not allowed")
        for prior in self._arcs:
            if (
                prior.producer == producer
                and prior.consumer == consumer
                and prior.cond_key == cond_key
                and not _same_mapping(prior.mapping, mapping)
            ):
                names = (
                    f"{self._templates[producer].name} -> "
                    f"{self._templates[consumer].name}"
                )
                raise GraphError(
                    f"arc {names} declared twice with different mappings "
                    f"({_describe_mapping(prior.mapping)} vs "
                    f"{_describe_mapping(mapping)}): the two declarations "
                    "contribute different Ready Counts — declare each "
                    "distinct dependence once"
                )
        arc = Arc(producer, consumer, mapping, cond_key)
        self._arcs.append(arc)
        return arc

    # -- access ------------------------------------------------------------
    @property
    def templates(self) -> list[DThreadTemplate]:
        return [self._templates[tid] for tid in sorted(self._templates)]

    @property
    def arcs(self) -> list[Arc]:
        return list(self._arcs)

    def template(self, tid: int) -> DThreadTemplate:
        return self._templates[tid]

    def __contains__(self, tid: int) -> bool:
        return tid in self._templates

    # -- validation ----------------------------------------------------------
    def validate(self) -> None:
        """Check the template-level graph is a DAG (DDM programs must be:
        dataflow firing cannot resolve cyclic dependences).

        Depth-first with an explicit stack of successor iterators, so a
        long chain of templates cannot overflow Python's call stack.
        """
        adj: dict[int, set[int]] = {tid: set() for tid in self._templates}
        for arc in self._arcs:
            adj[arc.producer].add(arc.consumer)
        state: dict[int, int] = {}  # 0=unvisited 1=on the path 2=done
        for root in self._templates:
            if state.get(root, 0):
                continue
            state[root] = 1
            path = [root]
            successors = [iter(adj[root])]
            while successors:
                for v in successors[-1]:
                    seen = state.get(v, 0)
                    if seen == 1:
                        cycle = path[path.index(v):] + [v]
                        names = " -> ".join(self._templates[t].name for t in cycle)
                        raise GraphError(f"dependency cycle: {names}")
                    if seen == 0:
                        state[v] = 1
                        path.append(v)
                        successors.append(iter(adj[v]))
                        break
                else:
                    state[path.pop()] = 2
                    successors.pop()

    # -- expansion ------------------------------------------------------------
    def expand(self) -> ExpandedGraph:
        """Flatten to the instance level (Ready Counts + consumer runs)."""
        self.validate()
        instances: list[DThreadInstance] = []
        index: dict[tuple[int, Context], int] = {}
        #: tid -> its instances, consecutive in context order.
        iids: dict[int, range] = {}
        for tmpl in self.templates:
            first = len(instances)
            for ctx in tmpl.contexts:
                iid = len(instances)
                instances.append(DThreadInstance(iid, tmpl, ctx))
                index[(tmpl.tid, ctx)] = iid
            iids[tmpl.tid] = range(first, len(instances))

        consumers = ConsumerRuns(len(instances))
        cond_targets: dict[int, dict[Any, list[int]]] = {}
        arc_runs: list[range] = []
        for arc in self._arcs:
            first_run = len(consumers.runs)
            prod = self._templates[arc.producer]
            cons = self._templates[arc.consumer]
            key = arc.cond_key
            if arc.mapping == "all" and key is None:
                # A barrier: the consumer template is one run, shared by
                # every producer instance.
                consumers.feed_all(
                    iids[prod.tid], consumers.add_run(iids[cons.tid])
                )
                arc_runs.append(range(first_run, len(consumers.runs)))
                continue
            cons_ctx_set = set(cons.contexts)
            for pctx in prod.contexts:
                src = index[(prod.tid, pctx)]
                for cctx in arc.consumer_contexts(pctx, cons):
                    if cctx not in cons_ctx_set:
                        raise GraphError(
                            f"arc {prod.name}->{cons.name} maps context "
                            f"{pctx!r} to nonexistent consumer context {cctx!r}"
                        )
                    dst = index[(cons.tid, cctx)]
                    run = consumers.add_run(range(dst, dst + 1))
                    consumers.feed(src, run)
                    if key is not None:
                        cond_targets.setdefault(src, {}).setdefault(key, []).append(run)
            arc_runs.append(range(first_run, len(consumers.runs)))

        ready = consumers.indegrees()
        entry = [iid for iid in range(len(instances)) if ready[iid] == 0]
        if not entry and instances:
            raise GraphError("no entry instances (every instance has producers)")
        graph = ExpandedGraph(
            instances, ready, consumers, entry, index, cond_targets, arc_runs
        )
        return graph


def _tid(ref: TemplateRef) -> int:
    return ref.tid if isinstance(ref, DThreadTemplate) else ref


class GraphBuilder:
    """Declares DThread templates and arcs into a :class:`SynchronizationGraph`.

    The shared base of :class:`~repro.core.builder.ProgramBuilder` (which
    adds the Environment and the sequential sections) and
    :class:`~repro.core.dynamic.Subflow` (which adds spawn-time
    expansion).  Template ids are local to one builder's graph.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.graph = SynchronizationGraph()
        self._next_tid = 1

    def thread(
        self,
        name: str,
        body: Optional[Callable[[Any, Context], Any]] = None,
        contexts: Union[int, Iterable[Context]] = 1,
        cost: Optional[Callable[[Any, Context], int]] = None,
        accesses: Optional[Callable[[Any, Context], Any]] = None,
        affinity: Optional[Callable[[Context, int], int]] = None,
        tid: Optional[int] = None,
    ) -> DThreadTemplate:
        """Declare a DThread template.

        *body*, *cost* and *accesses* are called as ``f(env, ctx)``.
        *contexts* may be an int (trip count, contexts ``0..n-1``) or an
        explicit iterable of context values.  What *body* returns is the
        instance's *outcome*: ``None``, a branch key (see :meth:`cond`)
        or a spawned :class:`~repro.core.dynamic.Subflow`.
        """
        if tid is None:
            tid = self._next_tid
        self._next_tid = max(self._next_tid, tid + 1)
        if isinstance(contexts, int):
            contexts = range(contexts)
        tmpl = DThreadTemplate(
            tid=tid,
            name=name,
            body=body,
            contexts=tuple(contexts),
            cost=cost,
            accesses=accesses,
            kind=ThreadKind.APPLICATION,
            affinity=affinity,
        )
        return self.graph.add_template(tmpl)

    def depends(
        self, producer: TemplateRef, consumer: TemplateRef, mapping: Mapping = "same"
    ) -> Arc:
        """Declare that *consumer* consumes data produced by *producer*."""
        return self.graph.add_arc(_tid(producer), _tid(consumer), mapping)

    def cond(
        self,
        producer: TemplateRef,
        consumer: TemplateRef,
        key: Any,
        mapping: Mapping = "same",
    ) -> Arc:
        """Declare a conditional arc, taken when *producer*'s body returns
        *key*.  Unchosen branches are squashed — see
        :mod:`repro.core.dynamic` for the exact semantics."""
        if key is None:
            raise ValueError(
                "cond key must not be None (None is the no-branch outcome)"
            )
        return self.graph.add_arc(
            _tid(producer), _tid(consumer), mapping, cond_key=key
        )
