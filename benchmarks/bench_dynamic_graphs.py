"""A8 — Dynamic unrolling vs the pre-unrolled static equivalent.

The dynamic-graph claim: when a Subflow-spawning program unrolls, at run
time, into the *same* block sequence a static program fixed up front,
the TSU schedules it identically — dynamism costs only the shipping of
the spawn itself, never a different schedule.

Construction: a chain of ``depth + 1`` stages of exactly ``cap``
uniform-cost DThreads each, with ``cap`` also the TSU block capacity.

* **static** — all stages built ahead of time; stage *i*'s spawner
  thread feeds every stage *i+1* thread, arcs the block splitter folds
  into the Outlet→Inlet barrier.
* **dynamic** — only stage 0 is built; each stage's first thread spawns
  stage *i+1* as a :class:`~repro.core.dynamic.Subflow`.

Both yield blocks of identical size, in-block Ready Counts (all zero:
the cross-stage arcs are barrier-subsumed) and contiguous placement, so
with a free transport (``ZeroOverheadAdapter``) the dynamic run must
match the static one **cycle for cycle**; on the priced platforms the
difference is bounded by the spawn transport (one TUB push per spawn on
TFluxSoft, a posted-store burst on TFluxHard).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import report
from repro.core.builder import ProgramBuilder
from repro.core.dynamic import Subflow
from repro.runtime.simdriver import SimulatedRuntime
from repro.sim.machine import BAGLE_27
from repro.tsu.hardware import HardwareTSUAdapter
from repro.tsu.software import SoftTSUCosts, SoftwareTSUAdapter

#: Uniform DThread cost (cycles) — large against protocol constants so
#: the schedules, not rounding, dominate.
WORK = 4_000
NKERNELS = 4

#: (cap, depth): stage width == TSU capacity, number of spawned stages.
GRID = ((4, 3), (8, 2), (6, 5))

ADAPTERS = {
    "zero-overhead": None,
    "tfluxhard": lambda e, t: HardwareTSUAdapter(e, t),
    "tfluxsoft": lambda e, t: SoftwareTSUAdapter(e, t, SoftTSUCosts()),
}


def _val(cap: int, stage: int, j: int) -> int:
    return stage * cap + j + 1


def _cost(env, _ctx) -> int:
    return WORK


def _build_static(cap: int, depth: int):
    b = ProgramBuilder(f"chain-static[{cap}x{depth + 1}]")
    b.env.alloc("out", cap * (depth + 1))
    prev = None
    for stage in range(depth + 1):
        def sp_body(env, _ctx, stage=stage):
            env.array("out")[stage * cap] = _val(cap, stage, 0)

        def w_body(env, ctx, stage=stage):
            env.array("out")[stage * cap + ctx + 1] = _val(cap, stage, ctx + 1)

        t_sp = b.thread(f"spawn{stage}", body=sp_body, cost=_cost)
        t_w = b.thread(f"w{stage}", body=w_body, contexts=cap - 1, cost=_cost)
        if prev is not None:
            b.depends(prev, t_sp, "all")
            b.depends(prev, t_w, "all")
        prev = t_sp
    return b.build()


def _build_dynamic(cap: int, depth: int):
    b = ProgramBuilder(f"chain-dyn[{cap}x{depth + 1}]")
    b.env.alloc("out", cap * (depth + 1))

    def make_workers(stage: int):
        def body(env, ctx):
            env.array("out")[stage * cap + ctx + 1] = _val(cap, stage, ctx + 1)

        return body

    def make_spawner(stage: int):
        def body(env, _ctx):
            env.array("out")[stage * cap] = _val(cap, stage, 0)
            if stage == depth:
                return None
            # Mirror the static stage shape template-for-template (one
            # spawner, one multi-context worker template) so placement
            # assigns the spawned block exactly like the static one.
            sf = Subflow(f"stage{stage + 1}")
            sf.thread(
                f"spawn{stage + 1}", body=make_spawner(stage + 1), cost=_cost
            )
            sf.thread(
                f"w{stage + 1}",
                body=make_workers(stage + 1),
                contexts=cap - 1,
                cost=_cost,
            )
            return sf

        return body

    b.thread("spawn0", body=make_spawner(0), cost=_cost)
    b.thread("w0", body=make_workers(0), contexts=cap - 1, cost=_cost)
    return b.build()


def _run(prog, factory, cap):
    rt = SimulatedRuntime(
        prog, BAGLE_27, nkernels=NKERNELS,
        adapter_factory=factory, tsu_capacity=cap,
    )
    return rt.run()


def _check_out(env, cap: int, depth: int) -> None:
    np.testing.assert_array_equal(
        env.array("out"), np.arange(1, cap * (depth + 1) + 1, dtype=np.float64)
    )


@pytest.fixture(scope="module")
def sweep():
    out = {}
    for cap, depth in GRID:
        for name, factory in ADAPTERS.items():
            stat = _run(_build_static(cap, depth), factory, cap)
            dyn = _run(_build_dynamic(cap, depth), factory, cap)
            _check_out(stat.env, cap, depth)
            _check_out(dyn.env, cap, depth)
            out[(cap, depth, name)] = (stat, dyn)
    return out


def test_dynamic_vs_static_table(sweep):
    lines = [
        "A8 — Dynamic unrolling vs pre-unrolled static equivalent "
        f"(stage chains, uniform {WORK}-cycle threads, {NKERNELS} kernels)",
        f"{'cap':>4} {'depth':>5} {'adapter':>14} {'static':>10} "
        f"{'dynamic':>10} {'delta':>7}",
    ]
    for (cap, depth, name), (stat, dyn) in sweep.items():
        lines.append(
            f"{cap:>4} {depth:>5} {name:>14} {stat.region_cycles:>10,} "
            f"{dyn.region_cycles:>10,} {dyn.region_cycles - stat.region_cycles:>7,}"
        )
    report("\n".join(lines))


def test_zero_overhead_is_cycle_for_cycle(sweep):
    """With a free transport the dynamic schedule IS the static one."""
    for cap, depth in GRID:
        stat, dyn = sweep[(cap, depth, "zero-overhead")]
        assert dyn.region_cycles == stat.region_cycles
        assert dyn.cycles == stat.cycles


def test_priced_platforms_pay_only_spawn_transport(sweep):
    """On priced platforms the dynamic run trails the static one by at
    most the spawn shipping cost (per spawn), never by a reshuffled
    schedule."""
    soft_ship = SoftTSUCosts().tub_push_cycles
    for cap, depth in GRID:
        # TFluxSoft ships each spawn as one extra TUB push, on the
        # spawner's critical path: the delta is exactly one push per
        # spawn.
        stat, dyn = sweep[(cap, depth, "tfluxsoft")]
        assert dyn.region_cycles - stat.region_cycles == depth * soft_ship
        # TFluxHard ships it as a posted-store burst (one command plus
        # one store per spawned instance).
        stat, dyn = sweep[(cap, depth, "tfluxhard")]
        delta = dyn.region_cycles - stat.region_cycles
        assert 0 < delta <= depth * 16 * cap, (
            f"tfluxhard cap={cap} depth={depth}: delta {delta}"
        )


def test_spawn_counters(sweep):
    for cap, depth in GRID:
        for name in ADAPTERS:
            stat, dyn = sweep[(cap, depth, name)]
            assert stat.counters["tsu.spawns"] == 0
            assert stat.counters["tsu.dynamic_blocks"] == 0
            assert dyn.counters["tsu.spawns"] == depth
            assert dyn.counters["tsu.dynamic_blocks"] == depth
            assert dyn.counters["tsu.squashed"] == 0
