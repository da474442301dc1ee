"""Tests for DThread templates, contexts, and the Synchronization Graph."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.context import CTX_ALL, normalize_context
from repro.core.dthread import DThreadTemplate, ThreadKind
from repro.core.builder import ProgramBuilder
from repro.core.dynamic import Subflow
from repro.core.graph import GraphBuilder, GraphError, SynchronizationGraph


# -- contexts -----------------------------------------------------------
def test_normalize_scalar():
    assert normalize_context(3) == 3


def test_normalize_singleton_tuple_collapses():
    assert normalize_context((5,)) == 5


def test_normalize_tuple():
    assert normalize_context((1, 2)) == (1, 2)


def test_ctx_all_singleton():
    from repro.core.context import _All

    assert _All() is CTX_ALL


# -- templates -----------------------------------------------------------
def test_template_defaults():
    t = DThreadTemplate(tid=1, name="t")
    assert t.ninstances == 1
    assert t.kind == ThreadKind.APPLICATION
    assert t.compute_cost(None, 0) > 0
    assert len(t.access_summary(None, 0)) == 0


def test_template_duplicate_contexts_rejected():
    with pytest.raises(ValueError):
        DThreadTemplate(tid=1, name="t", contexts=[0, 0])


def test_template_negative_tid_rejected():
    with pytest.raises(ValueError):
        DThreadTemplate(tid=-1, name="t")


def test_template_empty_contexts_rejected():
    with pytest.raises(ValueError):
        DThreadTemplate(tid=1, name="t", contexts=[])


def test_template_run_executes_body():
    hits = []
    t = DThreadTemplate(tid=1, name="t", body=lambda env, ctx: hits.append(ctx))
    t.run(None, 7)
    assert hits == [7]


# -- graph construction -----------------------------------------------------
def simple_graph():
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="a", contexts=range(4)))
    g.add_template(DThreadTemplate(tid=2, name="b", contexts=range(4)))
    g.add_template(DThreadTemplate(tid=3, name="reduce"))
    g.add_arc(1, 2, "same")
    g.add_arc(2, 3, "all")
    return g


def test_duplicate_template_rejected():
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="a"))
    with pytest.raises(GraphError):
        g.add_template(DThreadTemplate(tid=1, name="b"))


def test_arc_unknown_template_rejected():
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="a"))
    with pytest.raises(GraphError):
        g.add_arc(1, 99)


def test_self_arc_rejected():
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="a"))
    with pytest.raises(GraphError):
        g.add_arc(1, 1)


def test_cycle_detected():
    g = SynchronizationGraph()
    for tid, name in [(1, "a"), (2, "b"), (3, "c")]:
        g.add_template(DThreadTemplate(tid=tid, name=name))
    g.add_arc(1, 2)
    g.add_arc(2, 3)
    g.add_arc(3, 1)
    with pytest.raises(GraphError, match="cycle"):
        g.validate()


def test_dag_validates():
    simple_graph().validate()


# -- expansion ------------------------------------------------------------
def test_expand_same_mapping():
    g = simple_graph()
    eg = g.expand()
    assert eg.ninstances == 9  # 4 + 4 + 1
    eg.check_invariants()
    # a[i] feeds b[i]
    for i in range(4):
        src = eg.index[(1, i)]
        dst = eg.index[(2, i)]
        assert eg.consumers[src] == [dst]
        assert eg.ready_counts[dst] == 1


def test_expand_all_mapping_reduction():
    g = simple_graph()
    eg = g.expand()
    red = eg.index[(3, 0)]
    assert eg.ready_counts[red] == 4
    for i in range(4):
        assert red in eg.consumers[eg.index[(2, i)]]


def test_expand_entry_instances():
    eg = simple_graph().expand()
    assert sorted(eg.entry) == [eg.index[(1, i)] for i in range(4)]


def test_expand_callable_mapping_tree():
    """A two-level binary merge tree as in the paper's QSORT (§6.1.2)."""
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="sort", contexts=range(4)))
    g.add_template(DThreadTemplate(tid=2, name="merge1", contexts=range(2)))
    g.add_template(DThreadTemplate(tid=3, name="merge2"))
    g.add_arc(1, 2, mapping=lambda ctx: [ctx // 2])
    g.add_arc(2, 3, "all")
    eg = g.expand()
    eg.check_invariants()
    for i in range(2):
        assert eg.ready_counts[eg.index[(2, i)]] == 2
    assert eg.ready_counts[eg.index[(3, 0)]] == 2


def test_expand_bad_mapping_target_rejected():
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="a", contexts=range(2)))
    g.add_template(DThreadTemplate(tid=2, name="b", contexts=range(2)))
    g.add_arc(1, 2, mapping=lambda ctx: [ctx + 5])
    with pytest.raises(GraphError, match="nonexistent"):
        g.expand()


def test_expand_unknown_string_mapping_rejected():
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="a"))
    g.add_template(DThreadTemplate(tid=2, name="b"))
    g.add_arc(1, 2, mapping="bogus")
    with pytest.raises(GraphError):
        g.expand()


@settings(max_examples=30, deadline=None)
@given(
    widths=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_layered_graph_expansion_invariants(widths, seed):
    """Random layered DAGs expand with consistent ready counts."""
    import random

    rng = random.Random(seed)
    g = SynchronizationGraph()
    for layer, w in enumerate(widths):
        g.add_template(DThreadTemplate(tid=layer + 1, name=f"L{layer}", contexts=range(w)))
    for layer in range(len(widths) - 1):
        mapping = rng.choice(["same", "all"])
        if mapping == "same" and widths[layer] != widths[layer + 1]:
            mapping = "all"
        g.add_arc(layer + 1, layer + 2, mapping)
    eg = g.expand()
    eg.check_invariants()
    assert eg.ninstances == sum(widths)
    # Entry fringe is exactly the first layer.
    assert sorted(eg.entry) == [eg.index[(1, i)] for i in range(widths[0])]


# -- bulk "all" expansion vs the per-pair walk -----------------------------------
def _naive_expand(graph):
    """One append per (producer, consumer) instance pair of every arc —
    what ``expand()`` did before unconditional ``"all"`` arcs were
    extended in bulk.  Reference only."""
    index = {}
    for tmpl in graph.templates:
        for ctx in tmpl.contexts:
            index[(tmpl.tid, ctx)] = len(index)
    ready = [0] * len(index)
    consumers = [[] for _ in index]
    cond_targets = {}
    for arc in graph.arcs:
        prod, cons = graph.template(arc.producer), graph.template(arc.consumer)
        for pctx in prod.contexts:
            src = index[(prod.tid, pctx)]
            for cctx in arc.consumer_contexts(pctx, cons):
                dst = index[(cons.tid, cctx)]
                consumers[src].append(dst)
                ready[dst] += 1
                if arc.cond_key is not None:
                    cond_targets.setdefault(src, {}).setdefault(arc.cond_key, []).append(dst)
    entry = [iid for iid, count in enumerate(ready) if count == 0]
    return ready, consumers, entry, cond_targets


@st.composite
def _mixed_arc_graphs(draw):
    widths = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=5))
    g = SynchronizationGraph()
    for layer, w in enumerate(widths):
        g.add_template(DThreadTemplate(tid=layer + 1, name=f"L{layer}", contexts=range(w)))
    pairs = [(p, c) for p in range(len(widths)) for c in range(p + 1, len(widths))]
    for p, c in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True)):
        kinds = ["all", "fan"] + (["same"] if widths[p] == widths[c] else [])
        mapping = draw(st.sampled_from(kinds))
        if mapping == "fan":
            shift, span = draw(st.integers(0, 4)), draw(st.integers(1, 3))
            wc = widths[c]

            def mapping(ctx, shift=shift, span=span, wc=wc):
                return sorted({(ctx + shift + k) % wc for k in range(span)})

        # None: a plain arc; a key: conditional (an "all" one included).
        key = draw(st.sampled_from([None, None, "taken"]))
        for _ in range(draw(st.sampled_from([1, 1, 2]))):  # 2: a double token
            g.add_arc(p + 1, c + 1, mapping, cond_key=key)
    return g


@settings(max_examples=200, deadline=None)
@given(graph=_mixed_arc_graphs())
def test_expand_matches_per_pair_reference(graph):
    """Ready Counts, consumer lists *in order*, entry fringe and the
    conditional table are element-for-element what the per-pair walk
    produces, whatever mix of arcs surrounds a bulk-extended one."""
    eg = graph.expand()
    eg.check_invariants()
    assert (eg.ready_counts, eg.consumers, eg.entry, eg.cond_targets) == _naive_expand(graph)


def test_conditional_all_arc_fills_cond_targets():
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="p", contexts=range(2)))
    g.add_template(DThreadTemplate(tid=2, name="c", contexts=range(3)))
    g.add_arc(1, 2, "all")
    g.add_arc(1, 2, "all", cond_key="k")
    eg = g.expand()
    assert eg.consumers == [[2, 3, 4, 2, 3, 4]] * 2 + [[]] * 3
    assert eg.ready_counts == [0, 0, 4, 4, 4]
    assert eg.cond_targets == {0: {"k": [2, 3, 4]}, 1: {"k": [2, 3, 4]}}


def test_all_arc_expansion_is_linear_in_instances():
    """SUSAN Large at unroll 1: two 576 -> 576 ``"all"`` arcs.  Every
    ``index`` lookup hashes a ``(tid, ctx)`` key, so hashes of the tids
    count them: a few per instance, not one per instance pair."""
    hashes = 0

    class CountedTid(int):
        def __hash__(self):
            nonlocal hashes
            hashes += 1
            return int.__hash__(self)

    n = 576
    g = SynchronizationGraph()
    tids = [CountedTid(t) for t in (1, 2, 3)]
    for tid in tids:
        g.add_template(DThreadTemplate(tid=tid, name=f"phase{tid}", contexts=range(n)))
    g.add_arc(tids[0], tids[1], "all")
    g.add_arc(tids[1], tids[2], "all")

    hashes = 0
    eg = g.expand()
    assert eg.ready_counts == [0] * n + [n] * (2 * n)
    assert eg.consumers[0] == eg.consumers[n - 1] == list(range(n, 2 * n))
    assert eg.consumers[n] == eg.consumers[2 * n - 1] == list(range(2 * n, 3 * n))
    assert eg.entry == list(range(n))
    # 3n to build the index + (n + n) per arc, and a handful per template:
    assert 7 * n <= hashes <= 8 * n < 2 * n * n


# -- one declaration surface: ProgramBuilder and Subflow ------------------------
@pytest.mark.parametrize("make", [ProgramBuilder, Subflow], ids=["program", "subflow"])
def test_program_and_subflow_declare_through_one_surface(make):
    """The same thread/depends/cond calls build the same graph whether
    the receiver is a whole program or a spawnable sub-graph."""
    b = make("g")
    assert isinstance(b, GraphBuilder)
    for method in ("thread", "depends", "cond"):
        assert getattr(type(b), method) is getattr(GraphBuilder, method)

    src = b.thread("src", contexts=2)
    mid = b.thread("mid", contexts=2)
    join = b.thread("join")
    assert [t.tid for t in (src, mid, join)] == [1, 2, 3]
    b.depends(src, mid)  # "same", by template
    b.depends(2, join, "all")  # by id
    b.cond(src, join, key=1, mapping="all")

    eg = b.graph.expand()
    eg.check_invariants()
    assert eg.ready_counts == [0, 0, 1, 1, 4]
    assert eg.consumers == [[2, 4], [3, 4], [4], [4], []]
    assert eg.cond_targets == {0: {1: [4]}, 1: {1: [4]}}

    with pytest.raises(ValueError, match="cond key must not be None"):
        b.cond(src, mid, key=None)
    with pytest.raises(GraphError, match="declared twice with different mappings"):
        b.depends(src, mid, "all")
