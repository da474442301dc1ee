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
consumer list — exactly the metadata the Inlet DThread loads into the TSU.

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


@dataclass
class ExpandedGraph:
    """Instance-level graph: the TSU-loadable metadata."""

    instances: list[DThreadInstance]
    ready_counts: list[int]
    consumers: list[list[int]]
    #: iid of every instance with Ready Count zero (the entry fringe).
    entry: list[int]
    #: (template tid, ctx) -> iid
    index: dict[tuple[int, Context], int]
    #: Conditional-arc table: producer iid -> {branch key: consumer iids}.
    #: Empty for purely static graphs (the common case).
    cond_targets: dict[int, dict[Any, list[int]]] = field(default_factory=dict)

    @property
    def ninstances(self) -> int:
        return len(self.instances)

    def check_invariants(self) -> None:
        """Structural sanity: counts match arcs, no dangling consumers."""
        check_sync_counts(self.ready_counts, self.consumers, self.entry)


def check_sync_counts(ready_counts, consumers, entry) -> None:
    """Ready Counts equal incoming arcs, no arc leaves the node range,
    *entry* is the zero-count fringe: what an :class:`ExpandedGraph` and
    a :class:`~repro.core.block.DDMBlock` (over local ids) both keep."""
    n = len(ready_counts)
    incoming = [0] * n
    for src, outs in enumerate(consumers):
        for dst in outs:
            assert 0 <= dst < n, f"dangling consumer {dst} from {src}"
            incoming[dst] += 1
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
        dataflow firing cannot resolve cyclic dependences)."""
        adj: dict[int, set[int]] = {tid: set() for tid in self._templates}
        for arc in self._arcs:
            adj[arc.producer].add(arc.consumer)
        state: dict[int, int] = {}  # 0=unvisited 1=in-stack 2=done

        def dfs(u: int, stack: list[int]) -> None:
            state[u] = 1
            stack.append(u)
            for v in adj[u]:
                if state.get(v, 0) == 1:
                    cycle = stack[stack.index(v):] + [v]
                    names = " -> ".join(self._templates[t].name for t in cycle)
                    raise GraphError(f"dependency cycle: {names}")
                if state.get(v, 0) == 0:
                    dfs(v, stack)
            stack.pop()
            state[u] = 2

        for tid in self._templates:
            if state.get(tid, 0) == 0:
                dfs(tid, [])

    # -- expansion ------------------------------------------------------------
    def expand(self) -> ExpandedGraph:
        """Flatten to the instance level (Ready Counts + consumer lists)."""
        self.validate()
        instances: list[DThreadInstance] = []
        index: dict[tuple[int, Context], int] = {}
        for tmpl in self.templates:
            for ctx in tmpl.contexts:
                iid = len(instances)
                instances.append(DThreadInstance(iid, tmpl, ctx))
                index[(tmpl.tid, ctx)] = iid

        ready = [0] * len(instances)
        consumers: list[list[int]] = [[] for _ in instances]
        cond_targets: dict[int, dict[Any, list[int]]] = {}
        for arc in self._arcs:
            prod = self._templates[arc.producer]
            cons = self._templates[arc.consumer]
            if arc.mapping == "all" and arc.cond_key is None:
                # A barrier: every producer instance gets the same consumer
                # run, resolved once — n + m lookups, not n x m.
                dsts = [index[(cons.tid, cctx)] for cctx in cons.contexts]
                for pctx in prod.contexts:
                    consumers[index[(prod.tid, pctx)]].extend(dsts)
                for dst in dsts:
                    ready[dst] += prod.ninstances
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
                    consumers[src].append(dst)
                    ready[dst] += 1
                    if arc.cond_key is not None:
                        by_key = cond_targets.setdefault(src, {})
                        by_key.setdefault(arc.cond_key, []).append(dst)

        entry = [iid for iid in range(len(instances)) if ready[iid] == 0]
        if not entry and instances:
            raise GraphError("no entry instances (every instance has producers)")
        graph = ExpandedGraph(
            instances, ready, consumers, entry, index, cond_targets
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
