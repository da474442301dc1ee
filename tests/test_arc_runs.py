"""Consumer runs against the per-pair walk they replaced.

An instance's consumers are runs of consecutive ids
(``core/graph.py::ConsumerRuns``): an unconditional ``"all"`` arc is one
run that every producer lists, and its members' Ready Counts drop once,
by the producer count, when its last producer retires.  The per-pair
walk — one decrement per instance pair — lives on here only, as the
reference.  On random layered graphs mixing ``"all"``, ``"same"``,
callable, identical double-declared and conditional arcs, every reader
of the runs must answer what that walk answers: the fire order and its
deadlock message, each block's members, consumers, Ready Counts and
entry, ``newly_ready`` for each completion and ``post_updates``, and
every ``Reachability`` query.
"""

import heapq
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.block import split_into_blocks
from repro.core.deps import Reachability
from repro.core.dthread import DThreadTemplate
from repro.core.environment import Environment
from repro.core.graph import SynchronizationGraph
from repro.core.program import DDMProgram
from repro.tsu.group import FetchKind, TSUGroup
from tests.test_core_graph import _mixed_arc_graphs, _naive_expand, _pair_lists

CAPACITIES = [None, 1, 3, 7]


# -- the per-pair reference --------------------------------------------------------
class PairGraph:
    """An expanded graph with one consumer entry per instance pair."""

    def __init__(self, graph, eg):
        self.ready_counts, self.consumers, self.entry, self.cond_targets = (
            _naive_expand(graph)
        )
        self.instances = eg.instances
        self.ninstances = len(self.instances)


class PairEpoch:
    """Squash bookkeeping with one live-input decrement per dying arc."""

    def __init__(self, pg):
        self.graph = pg
        self.cond_out = pg.cond_targets
        self.has_cond = bool(self.cond_out)
        self.live_in = list(pg.ready_counts)
        self.squashed = set()

    def resolve(self, iid, key):
        newly = []
        for arc_key, targets in self.cond_out.get(iid, {}).items():
            if arc_key != key:
                for target in targets:
                    self._kill_arc(target, newly)
        return newly

    def _kill_arc(self, target, newly):
        self.live_in[target] -= 1
        if (
            self.live_in[target] == 0
            and target not in self.squashed
            and self.graph.ready_counts[target] > 0
        ):
            self.squashed.add(target)
            newly.append(target)
            for consumer in self.graph.consumers[target]:
                self._kill_arc(consumer, newly)


def pair_fire_order(pg, outcome_of):
    epoch = PairEpoch(pg)
    ready = list(pg.ready_counts)
    heap = list(pg.entry)
    heapq.heapify(heap)
    fired, retired = [], 0
    while heap:
        iid = heapq.heappop(heap)
        fired.append(iid)
        newly = epoch.resolve(iid, outcome_of(iid)) if epoch.has_cond else []
        retired += len(newly)
        for src in (*newly, iid):
            for dst in pg.consumers[src]:
                if dst in epoch.squashed:
                    continue
                ready[dst] -= 1
                if ready[dst] == 0:
                    heapq.heappush(heap, dst)
    if len(fired) + retired != pg.ninstances:
        stuck = [
            pg.instances[i].name
            for i in range(pg.ninstances)
            if ready[i] > 0 and i not in epoch.squashed
        ]
        raise RuntimeError(
            f"deadlock: {len(stuck)} instances never fired, e.g. {stuck[:5]}"
        )
    return fired


def pair_split(pg, cap):
    """Per block: (member iids, ready counts, local consumers, entry)."""
    n = pg.ninstances
    indeg = list(pg.ready_counts)
    queue = deque(iid for iid in range(n) if indeg[iid] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in pg.consumers[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    pos = {iid: p for p, iid in enumerate(order)}
    size = n if cap is None or cap >= n else cap
    out = []
    for start in range(0, n, size):
        end = min(start + size, n)
        members = order[start:end]
        consumers = [
            [pos[dst] - start for dst in pg.consumers[iid] if pos[dst] < end]
            for iid in members
        ]
        ready = [0] * len(members)
        for outs in consumers:
            for dst in outs:
                ready[dst] += 1
        out.append((members, ready, consumers, [i for i, rc in enumerate(ready) if rc == 0]))
    return out


class PairTSU(TSUGroup):
    """The TSU Group with the per-pair Post-Processing walk."""

    def _post_process(self, local_iid, newly_ready):
        sms, kernel_of = self.sms, self.tkt.kernel_of
        consumers = [c for members in self.consumers_of(local_iid) for c in members]
        for consumer in consumers:
            if sms[kernel_of(consumer)].decrement(consumer):
                newly_ready.append(consumer)
        self.post_updates += len(consumers)


def pair_closure(pg):
    closure = []
    for a in range(pg.ninstances):
        seen, stack = set(), list(pg.consumers[a])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(pg.consumers[v])
        closure.append(seen)
    return closure


def pair_lifo_order(pg):
    indeg = list(pg.ready_counts)
    frontier = [u for u in range(pg.ninstances) if indeg[u] == 0]
    order = []
    while frontier:
        u = frontier.pop()
        order.append(u)
        for v in pg.consumers[u]:
            indeg[v] -= 1
            if not indeg[v]:
                frontier.append(v)
    return order


# -- drivers -------------------------------------------------------------------------
def _verdict(run):
    try:
        return "ok", run()
    except RuntimeError as exc:
        return "raised", str(exc)


def runs_fire_order(graph, eg, outcome_of):
    prog = DDMProgram("p", graph, Environment())
    prog._expanded = eg
    order = prog.fire_order()
    fired, outcome = [], None
    try:
        while True:
            inst = order.send(outcome)
            fired.append(inst.iid)
            outcome = outcome_of(inst.iid)
    except StopIteration:
        return fired


def drive(tsu, nkernels, outcome_of):
    """Round-robin fetches; each round's threads complete in reverse
    kernel order.  Returns (kernel, iid, newly_ready) per completion."""
    log = []
    while not tsu.is_exited():
        running = []
        for k in range(nkernels):
            f = tsu.fetch(k)
            if f.kind is FetchKind.INLET:
                tsu.complete_inlet(k)
            elif f.kind is FetchKind.OUTLET:
                tsu.complete_outlet(k)
            elif f.kind is FetchKind.THREAD:
                running.append((k, f))
        for k, f in reversed(running):
            newly = tsu.complete_thread(k, f.local_iid, outcome_of(f.instance.iid))
            log.append((k, f.instance.iid, list(newly)))
            tsu.check_invariants()
    return log


# -- the differential ----------------------------------------------------------------
def _graph(widths, arcs):
    """Layers of *widths*; *arcs* are ``(producer layer, consumer layer,
    mapping, cond key)``, declared in order."""
    g = SynchronizationGraph()
    for layer, w in enumerate(widths):
        g.add_template(DThreadTemplate(tid=layer + 1, name=f"L{layer}", contexts=range(w)))
    for p, c, mapping, key in arcs:
        g.add_arc(p + 1, c + 1, mapping, cond_key=key)
    return g


def _from_first(ctx):
    return [0] if ctx == 0 else []


#: Hand-picked shapes random draws rarely hit.  A barrier whose members
#: drift apart in the topological order (L1[0] also feeds L3, queued
#: between L2[0] and L2[1]), so its block run is cut:
CUT_RUN = _graph(
    [1, 2, 2, 1],
    [(0, 2, "all", None), (1, 2, "same", None), (1, 3, _from_first, None)],
)
#: A barrier some of whose producers are squashed and some not: its
#: consumer keeps a live input, so it must fire, not be squashed.
HALF_SQUASHED = _graph([2, 2, 1], [(0, 1, "same", "taken"), (1, 2, "all", None)])


def _outcomes(outcomes):
    return lambda iid: outcomes[iid % len(outcomes)]


@st.composite
def _cases(draw):
    graph = draw(_mixed_arc_graphs())
    outcomes = draw(st.lists(st.sampled_from([None, "taken", "other"]), min_size=1, max_size=8))
    return graph, _outcomes(outcomes)


@settings(max_examples=150, deadline=None)
@given(case=_cases(), bump=st.integers(min_value=-1, max_value=30))
@example(case=(HALF_SQUASHED, _outcomes(["taken", None])), bump=-1)
@example(case=(CUT_RUN, _outcomes([None])), bump=0)
def test_fire_order_matches_per_pair_reference(case, bump):
    """Same instance sequence; with one Ready Count bumped (*bump* picks
    a non-entry instance), the same deadlock message."""
    graph, outcome_of = case
    eg = graph.expand()
    pg = PairGraph(graph, eg)
    inner = [i for i in range(eg.ninstances) if eg.ready_counts[i]]
    if bump >= 0 and inner:
        victim = inner[bump % len(inner)]
        eg.ready_counts[victim] += 1
        pg.ready_counts[victim] += 1
    got = _verdict(lambda: runs_fire_order(graph, eg, outcome_of))
    assert got == _verdict(lambda: pair_fire_order(pg, outcome_of))
    if bump < 0 or not inner:
        assert got[0] == "ok"


@settings(max_examples=150, deadline=None)
@given(graph=_mixed_arc_graphs(), cap=st.sampled_from(CAPACITIES))
@example(graph=CUT_RUN, cap=None)
@example(graph=CUT_RUN, cap=3)
def test_blocks_match_per_pair_reference(graph, cap):
    eg = graph.expand()
    blocks = split_into_blocks(eg, cap)
    got = [
        ([inst.iid for inst in b.instances], b.ready_counts, _pair_lists(b.consumers), b.entry)
        for b in blocks
    ]
    assert got == pair_split(PairGraph(graph, eg), cap)
    for b in blocks:
        b.check_invariants()


@settings(max_examples=150, deadline=None)
@given(
    case=_cases(),
    cap=st.sampled_from(CAPACITIES),
    nkernels=st.integers(min_value=1, max_value=3),
)
@example(case=(HALF_SQUASHED, _outcomes(["taken", None])), cap=None, nkernels=2)
@example(case=(CUT_RUN, _outcomes([None])), cap=None, nkernels=1)
def test_post_processing_matches_per_pair_reference(case, cap, nkernels):
    """``newly_ready`` of every completion, the dispatch sequence and
    ``post_updates`` equal the per-pair walk's, squashes included."""
    graph, outcome_of = case
    eg = graph.expand()
    tsu = TSUGroup(nkernels, split_into_blocks(eg, cap), root_graph=eg, tsu_capacity=cap)
    ref = PairTSU(nkernels, split_into_blocks(eg, cap), root_graph=eg, tsu_capacity=cap)
    epoch = PairEpoch(PairGraph(graph, eg))
    ref._epoch_of_block = {bid: epoch for bid in ref._epoch_of_block}
    assert drive(tsu, nkernels, outcome_of) == drive(ref, nkernels, outcome_of)
    assert tsu.post_updates == ref.post_updates
    assert tsu.squashed_threads == ref.squashed_threads


@settings(max_examples=100, deadline=None)
@given(graph=_mixed_arc_graphs())
def test_reachability_matches_per_pair_closure(graph):
    eg = graph.expand()
    pg = PairGraph(graph, eg)
    reach = Reachability(eg.consumers)
    closure = pair_closure(pg)
    assert reach.order == pair_lifo_order(pg)
    for a in range(eg.ninstances):
        for b in range(eg.ninstances):
            assert reach.ordered(a, b) == (b in closure[a]), (a, b)


# -- shared-run counting, by hand ------------------------------------------------------
def _barrier(producers=3, consumers=4):
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="p", contexts=range(producers)))
    g.add_template(DThreadTemplate(tid=2, name="c", contexts=range(consumers)))
    g.add_arc(1, 2, "all")
    return g.expand()


def test_a_barrier_cut_by_the_topological_order_is_two_runs():
    (block,) = split_into_blocks(CUT_RUN.expand())
    assert [inst.name for inst in block.instances] == [
        "L0[0]", "L1[0]", "L1[1]", "L2[0]", "L3[0]", "L2[1]"
    ]
    assert block.consumers.runs_of(0) == [range(3, 4), range(5, 6)]


def test_a_half_squashed_barrier_still_fires():
    eg = HALF_SQUASHED.expand()
    fired = runs_fire_order(HALF_SQUASHED, eg, _outcomes(["taken", None]))
    assert [eg.instances[i].name for i in fired] == ["L0[0]", "L0[1]", "L1[0]", "L2[0]"]


def test_a_barrier_is_one_run_applied_on_its_last_producer():
    eg = _barrier()
    runs = eg.consumers
    assert runs.runs == [range(3, 7)] and runs.producers == [3]
    assert runs.out[:3] == [[0]] * 3 and runs.fanouts[:3] == [4] * 3
    tsu = TSUGroup(1, split_into_blocks(eg))
    assert tsu.fetch(0).kind is FetchKind.INLET
    tsu.complete_inlet(0)
    counts = []
    for producer in (2, 0, 1):
        newly = []
        tsu._post_process(producer, newly)
        counts.append([tsu.sms[0]._entries[c].ready_count for c in range(3, 7)])
        assert newly == ([3, 4, 5, 6] if producer == 1 else [])
    # Untouched until the last producer retires, then all three tokens.
    assert counts == [[3] * 4, [3] * 4, [0] * 4]
    assert tsu.post_updates == 12


@pytest.mark.parametrize("tsu_class", [TSUGroup, PairTSU], ids=["runs", "per-pair"])
def test_a_run_hit_more_often_than_it_has_producers_underflows(tsu_class):
    """A producer notified twice: the second time is harmless in both
    walks (the barrier is owed two tokens), a third notification
    underflows the first member's Ready Count with the same error."""
    eg = _barrier(producers=2, consumers=2)
    tsu = tsu_class(1, split_into_blocks(eg))
    assert tsu.fetch(0).kind is FetchKind.INLET
    tsu.complete_inlet(0)
    newly = []
    tsu._post_process(0, newly)
    tsu._post_process(0, newly)
    assert newly == [2, 3]
    with pytest.raises(RuntimeError, match=r"ready count underflow for c\[0\] "):
        tsu._post_process(0, newly)
