"""Tests for DDM blocks, environments, programs, and the builder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DDMProgram,
    Environment,
    ProgramBuilder,
    ThreadKind,
)
from repro.core.block import split_into_blocks
from repro.core.dthread import DThreadTemplate
from repro.core.graph import SynchronizationGraph
from tests.test_core_graph import _mixed_arc_graphs


# -- Environment ------------------------------------------------------------
def test_env_alloc_and_region():
    env = Environment()
    a = env.alloc("A", (4, 4))
    assert a.shape == (4, 4)
    assert env.region("A").size == 128
    assert "A" in env


def test_env_duplicate_name_rejected():
    env = Environment()
    env.alloc("A", 4)
    with pytest.raises(KeyError):
        env.alloc("A", 4)


def test_env_scalars_share_region():
    env = Environment()
    env.set("x", 1.5)
    env.set("y", 2)
    assert env.region("x") is env.region("y")
    assert env["x"] == 1.5


def test_env_adopt_existing_array():
    env = Environment()
    arr = np.arange(10)
    adopted = env.adopt("data", arr)
    assert adopted is not arr or adopted.base is None  # asarray may share
    assert env.array("data").sum() == 45


def test_env_setitem_array_copyback():
    env = Environment()
    env.alloc("A", 4)
    env["A"] = np.ones(4)
    assert env.array("A").sum() == 4


def test_env_setitem_shape_mismatch_rejected():
    env = Environment()
    env.alloc("A", 4)
    with pytest.raises(ValueError):
        env["A"] = np.ones(5)


def test_env_scalar_name_collision_rejected():
    env = Environment()
    env.alloc("A", 4)
    with pytest.raises(KeyError):
        env.set("A", 1)


# -- block splitting --------------------------------------------------------
def chain_graph(n):
    g = SynchronizationGraph()
    for i in range(n):
        g.add_template(DThreadTemplate(tid=i + 1, name=f"t{i}"))
        if i:
            g.add_arc(i, i + 1)
    return g.expand()


def test_single_block_when_capacity_none():
    blocks = split_into_blocks(chain_graph(10))
    assert len(blocks) == 1
    assert blocks[0].size == 10
    assert blocks[0].is_last


def test_split_respects_capacity():
    blocks = split_into_blocks(chain_graph(10), tsu_capacity=4)
    assert [b.size for b in blocks] == [4, 4, 2]
    assert [b.is_last for b in blocks] == [False, False, True]


def test_split_blocks_have_inlet_outlet():
    blocks = split_into_blocks(chain_graph(5), tsu_capacity=2)
    for b in blocks:
        assert b.inlet.template.kind == ThreadKind.INLET
        assert b.outlet.template.kind == ThreadKind.OUTLET
        assert b.inlet.iid == b.size
        assert b.outlet.iid == b.size + 1
        b.check_invariants()


def test_split_no_backward_arcs():
    """Topological cutting: every arc is intra-block or crosses forward."""
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="w", contexts=range(6)))
    g.add_template(DThreadTemplate(tid=2, name="r"))
    g.add_arc(1, 2, "all")
    eg = g.expand()
    blocks = split_into_blocks(eg, tsu_capacity=3)
    # The reducer must land in the last block.
    last_names = [inst.name for inst in blocks[-1].instances]
    assert "r[0]" in last_names


def test_split_chain_blocks_entry():
    blocks = split_into_blocks(chain_graph(6), tsu_capacity=3)
    for b in blocks:
        # Chain cut: the first element of each block is its only entry.
        assert b.entry == [0]


def test_bad_capacity_rejected():
    with pytest.raises(ValueError):
        split_into_blocks(chain_graph(3), tsu_capacity=0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    cap=st.integers(min_value=1, max_value=12),
)
def test_split_partition_property(n, cap):
    """Blocks partition the instance set and each respects capacity."""
    blocks = split_into_blocks(chain_graph(n), tsu_capacity=cap)
    seen = [inst.iid for b in blocks for inst in b.instances]
    assert sorted(seen) == list(range(n))
    assert all(b.size <= cap for b in blocks)
    assert sum(1 for b in blocks if b.is_last) == 1
    for b in blocks:
        b.check_invariants()


# -- the position-table re-basing vs the per-pair lookups ------------------------
def _naive_split(eg, cap):
    """Per block: ``(member iids, ready_counts, consumers, entry)`` the
    way the splitter built them before it re-based through one position
    table — a ``block_of`` list, then a ``local`` dict per block and one
    lookup of each per arc.  Reference only."""
    n = eg.ninstances
    indeg = list(eg.ready_counts)
    order = [iid for iid in range(n) if indeg[iid] == 0]
    for u in order:  # FIFO Kahn: the list grows while it is walked
        for v in eg.consumers[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    size = n if cap is None or cap >= n else cap
    chunks = [order[i : i + size] for i in range(0, n, size)] or [[]]
    block_of = {iid: b for b, members in enumerate(chunks) for iid in members}
    out = []
    for b, members in enumerate(chunks):
        local = {iid: i for i, iid in enumerate(members)}
        consumers = [[] for _ in members]
        ready = [0] * len(members)
        for iid in members:
            for dst in eg.consumers[iid]:
                if block_of[dst] == b:
                    consumers[local[iid]].append(local[dst])
                    ready[local[dst]] += 1
        entry = [i for i in range(len(members)) if ready[i] == 0]
        out.append((members, ready, consumers, entry))
    return out


@settings(max_examples=150, deadline=None)
@given(
    graph=_mixed_arc_graphs(),  # layered: "same"/"all"/mapped, double tokens
    cap=st.sampled_from([None, 1, 2, 7, 1000]),
    spawned=st.booleans(),
)
def test_split_matches_per_pair_reference(graph, cap, spawned):
    """Members, Ready Counts, consumer lists *in order* and entry fringe
    of every block are element-for-element what the per-pair lookups
    produce — for a static split and for a spawned one (offset block
    ids, nobody marked last)."""
    eg = graph.expand()
    if spawned:
        blocks = split_into_blocks(eg, cap, first_block_id=5, mark_last=False)
    else:
        blocks = split_into_blocks(eg, cap)
    got = [
        ([inst.iid for inst in b.instances], b.ready_counts, b.consumers, b.entry)
        for b in blocks
    ]
    assert got == _naive_split(eg, cap)
    assert [b.block_id for b in blocks] == [5 * spawned + i for i in range(len(blocks))]
    assert [b.is_last for b in blocks] == [False] * (len(blocks) - 1) + [not spawned]
    for b in blocks:
        b.check_invariants()


# -- programs & builder -------------------------------------------------------
def build_sum_program(n=8):
    b = ProgramBuilder("sum")
    b.env.alloc("parts", n)

    def work(env, i):
        env.array("parts")[i] = i * i

    def total(env, _):
        env.set("total", float(env.array("parts").sum()))

    t1 = b.thread("work", body=work, contexts=n)
    t2 = b.thread("total", body=total)
    b.depends(t1, t2, "all")
    return b.build()


def test_program_sequential_execution():
    prog = build_sum_program(8)
    env = prog.run_sequential()
    assert env.get("total") == sum(i * i for i in range(8))


def test_program_ninstances():
    assert build_sum_program(8).ninstances == 9


def test_program_prologue_epilogue_order():
    b = ProgramBuilder("order")
    trace = []
    b.prologue("init", body=lambda env: trace.append("pro"))
    b.thread("mid", body=lambda env, _: trace.append("mid"))
    b.epilogue("fini", body=lambda env: trace.append("epi"))
    b.build().run_sequential()
    assert trace == ["pro", "mid", "epi"]


def test_program_deadlock_detection():
    """An instance whose producers never fire is reported, not hung.

    A well-formed expansion cannot deadlock (ready counts equal incoming
    arcs), so we corrupt a ready count to exercise the defensive check.
    """
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="a"))
    g.add_template(DThreadTemplate(tid=2, name="b"))
    g.add_arc(1, 2)
    prog = DDMProgram("dead", g, Environment())
    eg = prog.expanded()
    eg.ready_counts[eg.index[(2, 0)]] += 1  # one phantom producer
    with pytest.raises(RuntimeError, match="deadlock"):
        prog.run_sequential()


def test_builder_tid_autoassign_and_explicit():
    b = ProgramBuilder("tids")
    t1 = b.thread("a")
    t9 = b.thread("b", tid=9)
    t10 = b.thread("c")
    assert (t1.tid, t9.tid, t10.tid) == (1, 9, 10)


def test_builder_dependency_by_template_or_tid():
    b = ProgramBuilder("deps")
    ta = b.thread("a")
    tb = b.thread("b")
    b.depends(ta, tb.tid)
    eg = b.build().expanded()
    assert eg.ready_counts[eg.index[(tb.tid, 0)]] == 1


def test_program_blocks_delegates():
    prog = build_sum_program(8)
    blocks = prog.blocks(tsu_capacity=4)
    assert sum(b.size for b in blocks) == 9
