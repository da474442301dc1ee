"""The dependence deriver (repro.core.deps) and its diagnosis pass.

Four layers of evidence that derived graphs are *the same graphs* the
apps declare by hand:

* differential — building each static app with ``deps="derived"`` must
  reproduce the declared graph cycle-for-cycle on both shared-memory
  platforms (SUSAN is the documented exception: its derived halo map is
  *sparser* than the paper's barriers, and ``check_deps`` explains the
  declared "all" arcs as over-wide);
* property — random access-annotated programs always derive an acyclic,
  buildable graph that ``check_deps`` judges sufficient (no missing
  ordering);
* kernel — the packed-bitset :class:`Reachability` closure both checkers
  query agrees with a naive DFS on random DAGs, across the 64-bit word
  boundary;
* unit — template-arc folding, intra-template conflict rejection, and
  the duplicate-arc Ready-Count guard on ``ProgramBuilder.depends``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import BENCHMARKS, get_benchmark, problem_sizes
from repro.apps.common import ProblemSize
from repro.core import GraphError, ProgramBuilder, check_deps, derive
from repro.core.deps import ContextMap, DerivationError, Reachability
from repro.core.graph import ConsumerRuns
from repro.platforms import TFluxHard, TFluxSoft
from repro.sim.accesses import AccessSummary

SIZES = {
    "trapez": ProblemSize("trapez", "S", "t", {"k": 12}),
    "mmult": ProblemSize("mmult", "S", "t", {"n": 32}),
    "fft": ProblemSize("fft", "S", "t", {"n": 32}),
    "qsort": ProblemSize("qsort", "S", "t", {"n": 2048}),
    "susan": ProblemSize("susan", "S", "t", {"w": 36, "h": 36}),
}

NKERNELS = 4


# -- differential: derived == declared, cycle for cycle ------------------------
@pytest.mark.parametrize("platform_cls", [TFluxHard, TFluxSoft])
@pytest.mark.parametrize("bench_name", ["trapez", "mmult", "fft", "qsort"])
def test_derived_graph_is_cycle_identical(bench_name, platform_cls):
    bench = get_benchmark(bench_name)
    size = SIZES[bench_name]
    platform = platform_cls()
    measured = {}
    for mode in ("declared", "derived"):
        prog = bench.build(size, unroll=2, deps=mode)
        result = platform.execute(prog, nkernels=NKERNELS)
        bench.verify(prog.env, size)
        measured[mode] = (result.cycles, result.region_cycles)
    assert measured["declared"] == measured["derived"]


def test_susan_derived_is_sparser_and_diagnosed():
    """SUSAN's derived graph replaces the paper's phase barriers with the
    exact halo-shaped map; it must still verify, and the diagnoser must
    explain why the declared version differs (over-wide "all" arcs)."""
    bench = get_benchmark("susan")
    size = SIZES["susan"]
    prog = bench.build(size, unroll=2, deps="derived")
    TFluxSoft().execute(prog, nkernels=NKERNELS)
    bench.verify(prog.env, size)

    report = check_deps(bench.build(size, unroll=2, deps="declared"))
    assert report.ok  # nothing missing — barriers over-order, never under-order
    statuses = {(a.producer, a.consumer): a.status for a in report.arcs}
    assert statuses[("init", "smooth")] == "partial"
    assert statuses[("smooth", "output")] == "partial"


@pytest.mark.parametrize("bench_name", ["trapez", "mmult", "fft", "qsort"])
def test_static_apps_check_clean(bench_name):
    bench = get_benchmark(bench_name)
    report = check_deps(bench.build(SIZES[bench_name], unroll=2))
    assert report.ok
    assert not report.redundant


@pytest.mark.parametrize("unroll", [1, 4])
@pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
def test_derive_numbers_instances_like_the_expansion(bench_name, unroll):
    """check_deps asks the expansion's Reachability about derive()'s pair
    indices directly: the two instance numberings must be one."""
    size = problem_sizes(bench_name, "S")["small"]
    prog = get_benchmark(bench_name).build(size, unroll=unroll)
    assert derive(prog.graph, prog.env).index == prog.expanded().index


def test_trapez_derived_template_arcs():
    prog = get_benchmark("trapez").build(SIZES["trapez"], unroll=2)
    arcs = derive(prog.graph, prog.env).template_arcs()
    assert [(a.producer, a.consumer, a.mapping) for a in arcs] == [(1, 2, "all")]
    assert arcs[0].kinds == {"WR"}
    assert arcs[0].regions == {"parts"}


def test_mmult_derives_no_arcs():
    prog = get_benchmark("mmult").build(SIZES["mmult"], unroll=2)
    assert derive(prog.graph, prog.env).template_arcs() == []


def test_fft_derived_template_arcs_are_the_declared_barriers():
    prog = get_benchmark("fft").build(SIZES["fft"], unroll=2)
    arcs = derive(prog.graph, prog.env).template_arcs()
    assert [(a.producer, a.consumer, a.mapping) for a in arcs] == [
        (1, 2, "all"),
        (2, 3, "all"),
        (3, 4, "all"),
    ]


# -- property: derived graphs are acyclic and sufficient -----------------------
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_derived_graphs_acyclic_and_sufficient(data):
    """Random single-context templates with random slot footprints: the
    derived graph must always build, run to completion (acyclic — a
    cycle would deadlock the sequential kernel loop), compute the same
    result as program order, and pass its own diagnosis."""
    nslots = 8
    ntmpl = data.draw(st.integers(2, 5), label="ntemplates")
    slot = st.integers(0, nslots - 1)
    specs = [
        (
            sorted(data.draw(st.sets(slot, max_size=3), label=f"reads{t}")),
            sorted(data.draw(st.sets(slot, max_size=3), label=f"writes{t}")),
        )
        for t in range(ntmpl)
    ]

    def run(auto: bool) -> np.ndarray:
        b = ProgramBuilder("prop")
        b.env.alloc("a", nslots)
        reg = b.env.region("a")

        def make(reads, writes, stamp):
            def body(env, _ctx):
                arr = env.array("a")
                acc = sum(float(arr[i]) for i in reads)
                for i in writes:
                    arr[i] = arr[i] * 2.0 + acc + stamp

            def accesses(env, _ctx):
                s = AccessSummary()
                for i in reads:
                    s.read(reg, offset=i * 8, count=1)
                for i in writes:
                    s.write(reg, offset=i * 8, count=1)
                return s

            return body, accesses

        for t, (reads, writes) in enumerate(specs):
            body, accesses = make(reads, writes, t + 1)
            b.thread(f"t{t}", body=body, accesses=accesses)
        if auto:
            b.auto_depends()
            prog = b.build()
            report = check_deps(prog)
            assert not report.missing
        else:
            prog = b.build()
        prog.run_sequential()
        return prog.env.array("a").copy()

    # Derived-order result == program-order result (the derived arcs
    # never permit a schedule that changes the functional output, and
    # the sequential backend follows dataflow order when arcs exist).
    np.testing.assert_array_equal(run(auto=True), run(auto=False))


# -- unit: conflicts, folding, duplicate arcs ----------------------------------
def _noop(env, _ctx):
    return None


def test_intra_template_conflict_raises():
    b = ProgramBuilder("conflict")
    b.env.alloc("a", 4)
    reg = b.env.region("a")
    b.thread(
        "w",
        body=_noop,
        contexts=2,
        accesses=lambda env, i: AccessSummary().write(reg, offset=0, count=1),
    )
    with pytest.raises(DerivationError, match="self-dependences are illegal"):
        derive(b.graph, b.env)


def test_auto_depends_respects_declared_arcs():
    """A declared direct arc between a template pair takes precedence:
    auto_depends never stacks a second (derived) arc on top of it."""
    b = ProgramBuilder("precedence")
    b.env.alloc("a", 4)
    reg = b.env.region("a")
    t1 = b.thread(
        "w", body=_noop, accesses=lambda env, i: AccessSummary().write(reg)
    )
    t2 = b.thread(
        "r", body=_noop, accesses=lambda env, i: AccessSummary().read(reg)
    )
    b.depends(t1, t2, "all")
    assert b.auto_depends() == []
    assert len(b.graph.arcs) == 1


def test_contextmap_folding_on_partial_overlap():
    """A producer whose ranges feed two consumers each gets a ContextMap,
    not a blanket barrier."""
    b = ProgramBuilder("fold")
    b.env.alloc("a", 8)
    reg = b.env.region("a")
    t1 = b.thread(
        "w",
        body=_noop,
        contexts=4,
        accesses=lambda env, i: AccessSummary().write(reg, offset=i * 16, count=2),
    )
    t2 = b.thread(
        "r",
        body=_noop,
        contexts=2,
        accesses=lambda env, i: AccessSummary().read(reg, offset=i * 32, count=4),
    )
    arcs = derive(b.graph, b.env).template_arcs()
    assert len(arcs) == 1
    mapping = arcs[0].mapping
    assert isinstance(mapping, ContextMap)
    assert mapping.table == {0: (0,), 1: (0,), 2: (1,), 3: (1,)}


def test_duplicate_arc_different_mapping_rejected():
    b = ProgramBuilder("dup")
    t1 = b.thread("p", body=_noop, contexts=2)
    t2 = b.thread("c", body=_noop, contexts=2)
    b.depends(t1, t2, "same")
    with pytest.raises(GraphError, match="declared twice with different mappings"):
        b.depends(t1, t2, "all")


def test_duplicate_arc_identical_mapping_is_double_token():
    b = ProgramBuilder("double")
    b.env.set("hits", [])
    t1 = b.thread("p", body=lambda env, i: env.get("hits").append(i), contexts=2)
    t2 = b.thread("c", body=_noop, contexts=2)
    b.depends(t1, t2, "same")
    b.depends(t1, t2, "same")  # identical re-declaration: two tokens, legal
    prog = b.build()
    prog.run_sequential()
    assert sorted(prog.env.get("hits")) == [0, 1]


def test_duplicate_contextmap_arcs_compare_by_table():
    b = ProgramBuilder("cmdup")
    t1 = b.thread("p", body=_noop, contexts=2)
    t2 = b.thread("c", body=_noop, contexts=2)
    b.depends(t1, t2, ContextMap({0: (0,), 1: (1,)}))
    # An equal-table ContextMap is the same mapping (re-declaration ok) ...
    b.depends(t1, t2, ContextMap({0: (0,), 1: (1,)}))
    # ... a different table is a different Ready Count: rejected.
    with pytest.raises(GraphError, match="declared twice"):
        b.depends(t1, t2, ContextMap({0: (1,), 1: (0,)}))


# -- the shared reachability kernel ---------------------------------------------
def _naive_closure(consumers):
    """closure[a] = every node a DFS along the edges out of *a* visits."""
    closure = []
    for a in range(len(consumers)):
        seen = set()
        stack = list(consumers[a])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(consumers[v])
        closure.append(seen)
    return closure


def _as_runs(consumers):
    """Each node's successor list as runs: consecutive ids share one."""
    runs = ConsumerRuns(len(consumers))
    for u, outs in enumerate(consumers):
        first = 0
        for i in range(1, len(outs) + 1):
            if i == len(outs) or outs[i] != outs[i - 1] + 1:
                runs.feed(u, runs.add_run(range(outs[first], outs[i - 1] + 1)))
                first = i
    return runs


@st.composite
def _random_dags(draw):
    """Consumer lists of a random DAG under a hidden node relabelling
    (edges only run forward in the hidden order, so it is acyclic, but
    node ids carry no topological hint).  Sizes favour 0, 1 and the
    uint64 word boundary."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 63, 64, 65, 128, 129]),
                       st.integers(0, 40)))
    label = draw(st.permutations(range(n)))
    consumers = [[] for _ in range(n)]
    if n > 1:
        edges = draw(st.lists(
            st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)),
            max_size=3 * n,
        ))
        for lo, hi in edges:
            if lo < hi:  # duplicates allowed: arcs may carry two tokens
                consumers[label[lo]].append(label[hi])
    return consumers


@settings(deadline=None, max_examples=150)
@given(consumers=_random_dags())
# A 130-node chain: node 0 must reach bits 63, 64, 65 and 128, 129 — the
# last bit of word 0 and the first bits of words 1 and 2.
@example(consumers=[[u + 1] if u < 129 else [] for u in range(130)])
def test_reachability_matches_naive_dfs(consumers):
    n = len(consumers)
    reach = Reachability(_as_runs(consumers))
    closure = _naive_closure(consumers)
    assert sorted(reach.order) == list(range(n))
    position = {u: i for i, u in enumerate(reach.order)}
    for a in range(n):
        for b in range(n):
            assert reach.ordered(a, b) == (b in closure[a]), (a, b)
            if b in closure[a]:
                assert position[a] < position[b]
