"""Dynamic graphs: Subflow spawning, conditional arcs, squash, reuse.

Covers the graph-epoch model end to end: cond-arc semantics (diamond
join via phantom decrements, transitive dead chains, cross-block
squash-at-load), spawn mechanics and counters, the static≡dynamic
schedule equivalence, the recursive apps on every backend, and the
single-run guard (:class:`~repro.core.ProgramReusedError`).
"""

import numpy as np
import pytest

from repro.apps import get_benchmark
from repro.apps.common import ProblemSize
from repro.core import ProgramBuilder, ProgramReusedError
from repro.core.dynamic import Subflow
from repro.platforms.dist import TFluxDist
from repro.platforms.hard import TFluxHard
from repro.platforms.soft import TFluxSoft
from repro.runtime.native import NativeRuntime
from repro.runtime.simdriver import SimulatedRuntime, run_sequential_timed
from repro.sim.machine import BAGLE_27

# -- builders (fresh per run: programs are single-use) -------------------------


def build_spawn_tree(depth=3):
    """A binary spawn tree writing one leaf slot per path."""
    nleaves = 2 ** depth
    b = ProgramBuilder("spawntree")
    b.env.alloc("leaves", nleaves)

    def make_node(lo, hi):
        def body(env, _ctx):
            if hi - lo == 1:
                env.array("leaves")[lo] = lo + 1
                return None
            mid = (lo + hi) // 2
            sf = Subflow(f"split[{lo}:{hi}]")
            sf.thread(f"node[{lo}:{mid}]", body=make_node(lo, mid))
            sf.thread(f"node[{mid}:{hi}]", body=make_node(mid, hi))
            return sf

        return body

    b.thread("node[root]", body=make_node(0, nleaves))
    b.epilogue(
        "sum", body=lambda env: env.set("total", float(env.array("leaves").sum()))
    )
    return b.build()


def build_diamond(key):
    """pick --cond--> left|right --> join; right also feeds a dead chain."""
    b = ProgramBuilder("diamond")
    b.env.alloc("out", 5)

    def w(slot, value):
        return lambda env, _ctx: env.array("out").__setitem__(slot, value)

    t_pick = b.thread("pick", body=lambda env, _ctx: key)
    t_left = b.thread("left", body=w(0, 1))
    t_right = b.thread("right", body=w(1, 2))
    t_rdead = b.thread("rdead", body=w(2, 3))  # dies with right
    t_join = b.thread("join", body=w(3, 7))
    b.cond(t_pick, t_left, 1)
    b.cond(t_pick, t_right, 2)
    b.depends(t_right, t_rdead)
    b.depends(t_left, t_join)
    b.depends(t_right, t_join)
    return b.build()


# -- conditional arcs ----------------------------------------------------------
@pytest.mark.parametrize("key,expected", [(1, [1, 0, 0, 7, 0]), (2, [0, 2, 3, 7, 0])])
def test_diamond_join_fires_on_either_branch(key, expected):
    env = build_diamond(key).run_sequential()
    assert env.array("out").tolist() == expected


@pytest.mark.parametrize("nkernels", [1, 4])
def test_squash_is_schedule_independent(nkernels):
    res = SimulatedRuntime(build_diamond(1), BAGLE_27, nkernels=nkernels).run()
    assert res.env.array("out").tolist() == [1, 0, 0, 7, 0]
    # right + rdead die; join fires through the phantom decrement.
    assert res.counters["tsu.squashed"] == 2


def test_unmatched_key_squashes_every_branch():
    env = build_diamond(99).run_sequential()
    # Neither branch chosen: left, right, rdead die — and join, all of
    # whose inputs are now dead, squashes transitively too.
    assert env.array("out").tolist() == [0, 0, 0, 0, 0]


def test_cross_block_squash_at_load():
    """A cond consumer in a *later* block is retired when its block's
    Inlet loads (squash-at-load), not lost."""
    b = ProgramBuilder("xblock")
    b.env.alloc("out", 4)
    t_pick = b.thread("pick", body=lambda env, _ctx: 1)
    t_fill = b.thread(
        "fill", body=lambda env, i: env.array("out").__setitem__(i, i), contexts=3
    )
    t_live = b.thread("live", body=lambda env, _ctx: env.set("live", True))
    t_dead = b.thread("dead", body=lambda env, _ctx: env.set("dead", True))
    b.cond(t_pick, t_live, 1)
    b.cond(t_pick, t_dead, 2)
    prog = b.build()
    # Capacity 4 puts pick+fill in block 0, live+dead in block 1.
    res = SimulatedRuntime(prog, BAGLE_27, nkernels=2, tsu_capacity=4).run()
    assert res.env.get("live") is True
    assert res.env.get("dead") is None
    assert res.counters["tsu.squashed"] == 1


def test_builder_rejects_none_cond_key():
    b = ProgramBuilder("bad")
    t1 = b.thread("a", body=lambda env, _ctx: None)
    t2 = b.thread("b", body=lambda env, _ctx: None)
    with pytest.raises(ValueError, match="cond key"):
        b.cond(t1, t2, None)


# -- subflow spawning ----------------------------------------------------------
def test_spawn_tree_all_backends_agree():
    expected = np.arange(1, 9, dtype=np.float64)
    fingerprints = []
    for run in (
        lambda: build_spawn_tree().run_sequential(),
        lambda: SimulatedRuntime(build_spawn_tree(), BAGLE_27, nkernels=4).run().env,
        lambda: NativeRuntime(build_spawn_tree(), nkernels=4).run().env,
    ):
        env = run()
        np.testing.assert_array_equal(env.array("leaves"), expected)
        fingerprints.append((env.array("leaves").tobytes(), env.get("total")))
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]


def test_spawn_counters():
    res = SimulatedRuntime(build_spawn_tree(depth=3), BAGLE_27, nkernels=2).run()
    # A binary tree over 8 leaves spawns one subflow per internal node.
    assert res.counters["tsu.spawns"] == 7
    assert res.counters["tsu.dynamic_blocks"] == 7
    assert res.counters["tsu.squashed"] == 0


def test_static_programs_report_zero_dynamic_counters():
    b = ProgramBuilder("static")
    b.thread("only", body=lambda env, _ctx: env.set("x", 1))
    res = SimulatedRuntime(b.build(), BAGLE_27, nkernels=1).run()
    assert res.counters["tsu.spawns"] == 0
    assert res.counters["tsu.dynamic_blocks"] == 0
    assert res.counters["tsu.squashed"] == 0


def test_sequential_accounting_holds_for_dynamic_programs():
    res = run_sequential_timed(build_spawn_tree(), BAGLE_27)
    (k,) = res.kernels
    assert k.dthreads == res.total_dthreads
    assert k.fetches == k.dthreads + 1
    assert k.waits == 0


# -- static ≡ dynamic schedule equivalence -------------------------------------
def test_dynamic_unrolling_matches_static_schedule():
    """A spawned stage shaped exactly like a pre-built one schedules
    cycle-for-cycle identically under a free transport (the
    bench_dynamic_graphs claim, pinned small here)."""
    cap, work = 4, 1000

    def build_static():
        b = ProgramBuilder("s")
        b.env.alloc("out", 2 * cap)
        t1 = b.thread(
            "head",
            body=lambda env, i: env.array("out").__setitem__(i, i),
            contexts=cap,
            cost=lambda env, _c: work,
        )
        t2 = b.thread(
            "tail",
            body=lambda env, i: env.array("out").__setitem__(cap + i, cap + i),
            contexts=cap,
            cost=lambda env, _c: work,
        )
        b.depends(t1, t2, "all")
        return b.build()

    def build_dynamic():
        b = ProgramBuilder("d")
        b.env.alloc("out", 2 * cap)

        def head(env, i):
            env.array("out")[i] = i
            if i != 0:
                return None
            sf = Subflow("tail")
            sf.thread(
                "tail",
                body=lambda env, j: env.array("out").__setitem__(cap + j, cap + j),
                contexts=cap,
                cost=lambda env, _c: work,
            )
            return sf

        b.thread("head", body=head, contexts=cap, cost=lambda env, _c: work)
        return b.build()

    stat = SimulatedRuntime(build_static(), BAGLE_27, nkernels=4, tsu_capacity=cap).run()
    dyn = SimulatedRuntime(build_dynamic(), BAGLE_27, nkernels=4, tsu_capacity=cap).run()
    assert dyn.cycles == stat.cycles
    assert dyn.region_cycles == stat.region_cycles
    np.testing.assert_array_equal(stat.env.array("out"), dyn.env.array("out"))


# -- single-run guard ----------------------------------------------------------
def test_program_reuse_rejected_sequential():
    prog = build_diamond(1)
    prog.run_sequential()
    with pytest.raises(ProgramReusedError):
        prog.run_sequential()


def test_program_reuse_rejected_across_runtimes():
    prog = build_spawn_tree()
    runtime = SimulatedRuntime(prog, BAGLE_27, nkernels=2)
    runtime.run()
    with pytest.raises(ProgramReusedError):
        runtime.run()  # the same runtime object a second time
    with pytest.raises(ProgramReusedError):
        SimulatedRuntime(prog, BAGLE_27, nkernels=2).run()
    with pytest.raises(ProgramReusedError):
        NativeRuntime(prog, nkernels=2).run()
    with pytest.raises(ProgramReusedError):
        run_sequential_timed(prog, BAGLE_27)


# -- the recursive apps --------------------------------------------------------
_TINY_QSORT = ProblemSize("qsort_rec", "S", "tiny", {"n": 1500})
_TINY_QUAD = ProblemSize("quad", "S", "tiny", {"eps": 1e-3})


def _qsort_prog():
    return get_benchmark("qsort_rec").build(_TINY_QSORT, unroll=8)


def test_qsort_rec_platforms_agree():
    bench = get_benchmark("qsort_rec")
    outs = []
    for run in (
        lambda: _qsort_prog().run_sequential(),
        lambda: TFluxHard().execute(_qsort_prog(), nkernels=4).env,
        lambda: TFluxSoft().execute(_qsort_prog(), nkernels=4).env,
        lambda: NativeRuntime(_qsort_prog(), nkernels=4).run().env,
        lambda: TFluxDist(nnodes=2).execute(_qsort_prog(), nkernels=4).env,
    ):
        env = run()
        bench.verify(env, _TINY_QSORT)
        outs.append(env.array("data").tobytes())
    assert len(set(outs)) == 1


def test_quad_adaptive_refinement():
    bench = get_benchmark("quad")
    res = TFluxHard().execute(bench.build(_TINY_QUAD), nkernels=4)
    bench.verify(res.env, _TINY_QUAD)
    # The peaked integrand must actually refine (spawn), and the cond
    # tail squashes exactly the branch the root did not take.
    assert res.counters["tsu.spawns"] > 0
    assert res.counters["tsu.squashed"] == 1


# -- preprocessor surface ------------------------------------------------------
def test_pragma_spawn_and_cond_end_to_end():
    from repro.preprocessor import compile_to_program

    src = """
#pragma ddm startprogram name(dynpragma)
#pragma ddm var double parts[4]
#pragma ddm var int mode

#pragma ddm subflow name(refine)
#pragma ddm thread 1 context(4)
  parts[CTX] = parts[CTX] * 2.0;
#pragma ddm endthread
#pragma ddm thread 2 depends(1 all)
  mode = mode + 10;
#pragma ddm endthread
#pragma ddm endsubflow

#pragma ddm thread 1 context(4)
  parts[CTX] = CTX + 1;
#pragma ddm endthread

#pragma ddm thread 2 depends(1 all)
  if (parts[3] > 2.0) {
    DDMSPAWN = refine;
  } else {
    DDMCHOICE = 1;
  }
#pragma ddm endthread

#pragma ddm thread 3 cond(2 1)
  mode = 1;
#pragma ddm endthread
#pragma ddm endprogram
"""
    prog = compile_to_program(src)
    res = SimulatedRuntime(prog, BAGLE_27, nkernels=2).run()
    # parts[3] = 4 > 2: thread 2 spawns (outcome = Subflow, no branch
    # key), so thread 3 is squashed and the subflow doubles + flags.
    np.testing.assert_array_equal(
        res.env.array("parts"), np.array([2.0, 4.0, 6.0, 8.0])
    )
    assert res.env.get("mode") == 10
    assert res.counters["tsu.spawns"] == 1
    assert res.counters["tsu.squashed"] == 1


def test_pragma_subflow_arcs_emit_like_program_arcs():
    """A subflow's map/all/cond arcs — a shape no shipped source has —
    emit the same registrations the program scope gets, on ``sf``."""
    from repro.preprocessor import compile_to_program, emit_module

    src = """
#pragma ddm startprogram name(sfarcs)
#pragma ddm var int out[4]

#pragma ddm subflow name(kid)
#pragma ddm thread 1 context(4)
  out[CTX] = CTX + 1;
#pragma ddm endthread
#pragma ddm thread 2 context(2) depends(1 map(CTX / 2))
  DDMCHOICE = 1;
#pragma ddm endthread
#pragma ddm thread 3 depends(2 all) cond(2 1 all)
  out[0] = out[0] + out[3];
#pragma ddm endthread
#pragma ddm endsubflow

#pragma ddm thread 1
  DDMSPAWN = kid;
#pragma ddm endthread
#pragma ddm endprogram
"""
    lines = emit_module(src).splitlines()
    start = lines.index("def _subflow_kid():")
    assert lines[start:start + 9] == [
        "def _subflow_kid():",
        "    sf = Subflow('kid')",
        '    t1 = sf.thread("kid_1", body=_sf_kid_thread_1, contexts=4)',
        '    t2 = sf.thread("kid_2", body=_sf_kid_thread_2, contexts=2)',
        '    t3 = sf.thread("kid_3", body=_sf_kid_thread_3, contexts=1)',
        "    sf.depends(t1, t2, lambda CTX: [int(_cdiv(CTX, 2))])",
        "    sf.depends(t2, t3, 'all')",
        "    sf.cond(t2, t3, 1, 'all')",
        "    return sf",
    ]
    env = compile_to_program(src).run_sequential()
    np.testing.assert_array_equal(env.array("out"), np.array([5, 2, 3, 4]))
