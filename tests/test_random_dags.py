"""Random fork/join DAGs on every simulated platform.

A program's result depends only on its Ready Counts, never on the
schedule (paper §2): each random DAG must leave an environment
byte-identical to the sequential baseline's, with every DThread
instance dispatched exactly once.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ProgramBuilder
from repro.core.dynamic import Subflow
from repro.net import FatTree
from repro.obs import Tracer
from repro.platforms.cellbe import TFluxCell
from repro.platforms.dist import TFluxDist
from repro.platforms.hard import TFluxHard
from repro.platforms.soft import TFluxSoft
from repro.runtime.simdriver import SimulatedRuntime
from repro.tsu.multigroup import MultiGroupHardwareAdapter

#: key -> (platform, fewest kernels it runs on: one per TSU group / node).
PLATFORMS = {
    "hard": (TFluxHard, 1),
    "soft": (TFluxSoft, 1),
    "cell": (TFluxCell, 1),
    "multigroup": (TFluxHard, 2),
    "dist2": (lambda: TFluxDist(nnodes=2), 2),
    "hier": (lambda: TFluxDist(nnodes=8, topology=FatTree(pod_size=4), cluster_size=4), 8),
}

#: Stage widths, reduce tail, spawning last stage, TSU capacity, kernels.
dag_programs = st.tuples(
    st.lists(st.integers(1, 6), min_size=1, max_size=3), st.booleans(), st.booleans(),
    st.sampled_from([None, 4, 8]), st.integers(1, 4),
)


def build_dag(widths, reduce_tail, spawn):
    b = ProgramBuilder("dag")
    for j, w in enumerate(widths):
        b.env.alloc(f"a{j}", w)
    b.env.alloc("sp", widths[-1])
    last = len(widths) - 1

    def stage_body(j):
        def body(env, i):
            prev = float(env.array(f"a{j-1}").sum()) if j else 0.0
            env.array(f"a{j}")[i] = prev + i + 1
            if spawn and j == last:  # one dynamic worker per instance
                sf = Subflow(f"sp[{i}]")
                sf.thread(f"sp[{i}]", body=lambda env, _c: env.array("sp").__setitem__(i, i + 100))
                return sf
        return body

    threads = [b.thread(f"s{j}", body=stage_body(j), contexts=w) for j, w in enumerate(widths)]
    for t1, t2 in zip(threads, threads[1:]):
        b.depends(t1, t2, "all")
    if reduce_tail:
        red = b.thread("reduce", body=lambda env, _: env.set("total", float(env.array(f"a{last}").sum())))
        b.depends(threads[-1], red, "all")
    return b.build()


def _outcome(result):
    env = {n: np.asarray(result.env[n]).tobytes() for n in result.env.names()}
    return env, sorted(s.name for s in result.spans if s.kind == "thread")


@pytest.mark.parametrize("platform_key", sorted(PLATFORMS))
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(params=dag_programs)
def test_random_dag_matches_sequential(platform_key, params):
    widths, reduce_tail, spawn, cap, nkernels = params
    make, min_kernels = PLATFORMS[platform_key]
    platform = make()
    factory = platform.adapter_factory()
    if platform_key == "multigroup":
        factory = lambda engine, tsu: MultiGroupHardwareAdapter(engine, tsu, n_groups=2)  # noqa: E731
    run = SimulatedRuntime(
        build_dag(widths, reduce_tail, spawn), platform.machine, nkernels=max(nkernels, min_kernels),
        adapter_factory=factory, tsu_capacity=cap, tracer=Tracer(),
    ).run()
    seq = platform.sequential_baseline(build_dag(widths, reduce_tail, spawn), tracer=Tracer())
    env, names = _outcome(run)
    assert (env, names) == _outcome(seq)
    assert len(names) == len(set(names)) == sum(widths) + reduce_tail + spawn * widths[-1]
