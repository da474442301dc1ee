"""The simulator's schedule of a static program equals an outside one.

``tests/reference_schedule.py`` writes the schedule of a one-block,
zero-overhead, compute-only run from the documented rules, without the
simulator's TSU, Kernel loop or engine.  On random layered DAGs with
barrier (``"all"``) and pairwise arcs, with costs drawn to tie often,
every instance's (kernel, start, end), the Inlet's and the Outlet's must
be what the reference says.  Conditional arcs, blocks, stealing and
priced TSU operations are not covered yet.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import ProgramBuilder
from repro.obs import Tracer
from repro.runtime import SimulatedRuntime
from repro.sim.machine import BAGLE_27, XEON_8
from tests.reference_schedule import Graph, schedule


def simulate(graph: Graph, nkernels: int) -> dict[str, tuple[int, int, int]]:
    """The simulator's spans, keyed as the reference keys them."""
    b = ProgramBuilder("reference")
    templates = [
        b.thread(name, contexts=len(costs), cost=lambda _env, ctx, c=costs: c[ctx])
        for name, costs in graph.templates
    ]
    for prod, cons, pairs in graph.arcs:
        mapping = pairs if pairs == "all" else (lambda ctx, p=pairs: p[ctx])
        b.depends(templates[prod], templates[cons], mapping)
    machine = XEON_8 if nkernels <= XEON_8.ncores else BAGLE_27
    run = SimulatedRuntime(b.build(), machine, nkernels=nkernels, tracer=Tracer()).run()
    return {
        s.name if s.kind == "thread" else s.kind: (s.kernel, s.start, s.end)
        for s in run.spans
    }


@st.composite
def layered_graphs(draw) -> Graph:
    """1-4 layers of 1-3 templates of 1-6 contexts; each template past the
    first layer consumes 1-2 templates of earlier layers, through a
    barrier or a pairwise map (each producer context feeding 0-3 consumer
    contexts, so some consumers may be entries)."""
    cost = draw(st.sampled_from([st.integers(1, 2), st.integers(1, 4), st.integers(1, 50)]))
    templates, layer_of = [], []
    for layer in range(draw(st.integers(1, 4))):
        for _ in range(draw(st.integers(1, 3))):
            costs = draw(st.lists(cost, min_size=1, max_size=6))
            templates.append((f"t{len(templates)}", tuple(costs)))
            layer_of.append(layer)
    arcs = []
    for cons, layer in enumerate(layer_of):
        earlier = [p for p, lp in enumerate(layer_of) if lp < layer]
        if not earlier:
            continue
        ncons = len(templates[cons][1])
        for prod in draw(st.lists(st.sampled_from(earlier), min_size=1, max_size=2, unique=True)):
            if draw(st.booleans()):
                pairs = "all"
            else:
                targets = st.lists(st.integers(0, ncons - 1), max_size=3, unique=True)
                pairs = tuple(tuple(draw(targets)) for _ in templates[prod][1])
            arcs.append((prod, cons, pairs))
    return Graph(tuple(templates), tuple(draw(st.permutations(arcs))))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=layered_graphs(), nkernels=st.integers(1, 27))
# One completion wakes kernels 5 and 12, whose last threads retire in one
# cycle: the Outlet goes to 5, which fetched first (a set iterates 12 first).
@example(graph=Graph(
    (("p", (1,)), ("c", tuple(2 if i in (5, 12) else 1 for i in range(13)))),
    ((0, 1, ((5, 12),)),)), nkernels=13)
def test_simulator_schedule_matches_reference(graph, nkernels):
    assert simulate(graph, nkernels) == schedule(graph, nkernels)


def test_reference_on_a_worked_fork_join():
    """Two kernels: a fork of 4 (costs 3, 1, 1, 1) feeding a join through
    a barrier.  Kernel 0 holds a[0], a[1] and the join (its one context
    goes to kernel 0 * 2 // 1 = 0); kernel 1 holds a[2] and a[3].  The
    join waits for a[1], which waits for a[0] on its kernel."""
    graph = Graph((("a", (3, 1, 1, 1)), ("j", (2,))), ((0, 1, "all"),))
    expected = {
        "inlet": (0, 0, 0),
        "a[0]": (0, 0, 3), "a[2]": (1, 0, 1), "a[3]": (1, 1, 2),
        "a[1]": (0, 3, 4), "j[0]": (0, 4, 6),
        "outlet": (0, 6, 6),
    }
    assert schedule(graph, 2) == expected
    assert simulate(graph, 2) == expected
