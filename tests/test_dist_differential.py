"""TFluxDist(1 node, zero-cost network) ≡ TFluxSoft differential suite.

The distributed adapter (``repro/tsu/dist.py``) claims to be the
software-TSU protocol sharded across nodes — costs only, the TSU Group
state machine never forked.  The sharpest way to pin that claim is the
degenerate case: with one node and a free network, every code path must
collapse to exactly :class:`~repro.tsu.software.SoftwareTSUAdapter`, and
the two platforms must produce **bit-identical** simulations:

* identical total and region cycle counts;
* identical counters — excluding the ``net.*`` namespace, which only
  TFluxDist publishes (and which must be all-zero traffic at one node);
* byte-identical functional output, identical span multisets, identical
  per-kernel schedules.

Fixed paper programs run first; a hypothesis fork/join DAG strategy
(the shape ``test_random_dags.py`` runs on every platform) then feeds
random interleavings through the check.  A second group pins the multi-node
*functional* contract: whatever the node count and network cost, results
and scheduling counters never change — only time does.
"""

from collections import Counter as Multiset

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import get_benchmark, problem_sizes
from repro.core import ProgramBuilder
from repro.net import NetParams
from repro.obs import Tracer
from repro.platforms.dist import TFluxDist
from repro.platforms.soft import TFluxSoft
from repro.runtime.simdriver import SimulatedRuntime
from repro.tsu.policy import round_robin_placement

NKERNELS = 4


# -- program builders (fresh per run: programs are single-use) -----------------
def build_trapez():
    bench = get_benchmark("trapez")
    size = problem_sizes("trapez", "N")["small"]
    return bench.build(size, unroll=8, max_threads=64), None


def build_blocked():
    """A three-stage pipeline wide enough to split into several blocks."""
    n = 12
    b = ProgramBuilder("blocked")
    b.env.alloc("a", n)
    b.env.alloc("b", n)
    b.env.alloc("c", n)
    t1 = b.thread(
        "s1", body=lambda env, i: env.array("a").__setitem__(i, i + 1), contexts=n
    )
    t2 = b.thread(
        "s2",
        body=lambda env, i: env.array("b").__setitem__(i, env.array("a")[i] * 2),
        contexts=n,
    )
    t3 = b.thread(
        "s3",
        body=lambda env, i: env.array("c").__setitem__(i, env.array("b")[i] + 1),
        contexts=n,
    )
    red = b.thread(
        "reduce", body=lambda env, _: env.set("total", float(env.array("c").sum()))
    )
    b.depends(t1, t2)
    b.depends(t2, t3)
    b.depends(t3, red, "all")
    return b.build(), 6


PROGRAMS = {"trapez": build_trapez, "blocked": build_blocked}


# -- fingerprints --------------------------------------------------------------
def env_fingerprint(env):
    fp = {}
    for name in env.names():
        value = env[name]
        fp[name] = value.tobytes() if isinstance(value, np.ndarray) else value
    return fp


def nonnet_counters(result):
    return {
        k: v
        for k, v in result.counters.as_dict().items()
        if not k.startswith("net.")
    }


def span_multiset(result):
    return Multiset((s.kind, s.name) for s in result.spans)


def assert_bit_identical(dist, soft):
    """The full one-node contract for one program."""
    assert dist.cycles == soft.cycles
    assert dist.region_cycles == soft.region_cycles
    assert nonnet_counters(dist) == nonnet_counters(soft)
    assert env_fingerprint(dist.env) == env_fingerprint(soft.env)
    assert span_multiset(dist) == span_multiset(soft)
    assert [(k.dthreads, k.fetches, k.waits) for k in dist.kernels] == [
        (k.dthreads, k.fetches, k.waits) for k in soft.kernels
    ]
    # One node, nothing remote: the network must have stayed silent.
    assert dist.counters["net.messages"] == 0
    assert dist.counters["net.bytes_forwarded"] == 0
    assert dist.counters["net.remote_updates"] == 0


def run_pair(program_key, nkernels=NKERNELS):
    prog, cap = PROGRAMS[program_key]()
    dist = TFluxDist(nnodes=1, net=NetParams.zero_cost()).execute(
        prog, nkernels=nkernels, tsu_capacity=cap, tracer=Tracer()
    )
    prog, cap = PROGRAMS[program_key]()
    soft = TFluxSoft().execute(prog, nkernels=nkernels, tsu_capacity=cap, tracer=Tracer())
    return dist, soft


# -- fixed paper programs ------------------------------------------------------
@pytest.mark.parametrize("program_key", sorted(PROGRAMS))
@pytest.mark.parametrize("nkernels", (1, 4, 6))
def test_one_node_bit_identical(program_key, nkernels):
    dist, soft = run_pair(program_key, nkernels=nkernels)
    assert_bit_identical(dist, soft)


def test_one_node_bit_identical_round_robin():
    # execute always places contiguously: build each platform's driver
    # with the round-robin policy instead.
    def run(platform):
        prog, cap = PROGRAMS["blocked"]()
        return SimulatedRuntime(
            prog, platform.machine, nkernels=NKERNELS,
            adapter_factory=platform.adapter_factory(), tsu_capacity=cap,
            placement=round_robin_placement, platform_name=platform.name,
            tracer=Tracer(),
        ).run()

    assert_bit_identical(run(TFluxDist(nnodes=1, net=NetParams.zero_cost())), run(TFluxSoft()))


def test_one_node_nonzero_network_is_still_identical():
    """With one node no message is ever sent, so even an expensive
    network must not change a single cycle."""
    prog, cap = PROGRAMS["blocked"]()
    dist = TFluxDist(nnodes=1).execute(
        prog, nkernels=NKERNELS, tsu_capacity=cap, tracer=Tracer()
    )
    prog, cap = PROGRAMS["blocked"]()
    soft = TFluxSoft().execute(
        prog, nkernels=NKERNELS, tsu_capacity=cap, tracer=Tracer()
    )
    assert_bit_identical(dist, soft)


# -- random DAGs ---------------------------------------------------------------
@st.composite
def dag_programs(draw):
    """A random fork/join pipeline: stage widths, dep kinds, capacity."""
    nstages = draw(st.integers(min_value=1, max_value=3))
    widths = [draw(st.integers(min_value=1, max_value=6)) for _ in range(nstages)]
    reduce_tail = draw(st.booleans())
    cap = draw(st.sampled_from([None, 4, 8]))
    nkernels = draw(st.integers(min_value=1, max_value=4))
    return widths, reduce_tail, cap, nkernels


def build_dag(widths, reduce_tail):
    b = ProgramBuilder("dag")
    for j, w in enumerate(widths):
        b.env.alloc(f"a{j}", w)

    def stage_body(j):
        if j == 0:
            return lambda env, i: env.array("a0").__setitem__(i, float(i + 1))
        return lambda env, i: env.array(f"a{j}").__setitem__(
            i, float(env.array(f"a{j-1}").sum()) + i
        )

    threads = []
    for j, w in enumerate(widths):
        t = b.thread(f"s{j}", body=stage_body(j), contexts=w)
        if threads:
            b.depends(threads[-1], t, "all")
        threads.append(t)
    if reduce_tail:
        last = len(widths) - 1
        red = b.thread(
            "reduce",
            body=lambda env, _: env.set(
                "total", float(env.array(f"a{last}").sum())
            ),
        )
        b.depends(threads[-1], red, "all")
    return b.build()


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=dag_programs())
def test_one_node_bit_identical_random_dags(params):
    widths, reduce_tail, cap, nkernels = params
    dist = TFluxDist(nnodes=1, net=NetParams.zero_cost()).execute(
        build_dag(widths, reduce_tail),
        nkernels=nkernels,
        tsu_capacity=cap,
        tracer=Tracer(),
    )
    soft = TFluxSoft().execute(
        build_dag(widths, reduce_tail),
        nkernels=nkernels,
        tsu_capacity=cap,
        tracer=Tracer(),
    )
    assert_bit_identical(dist, soft)


# -- multi-node: time changes, results never do --------------------------------
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    params=dag_programs(),
    nnodes=st.sampled_from([2, 3, 4]),
    zero_cost=st.booleans(),
)
def test_multi_node_functional_invariance(params, nnodes, zero_cost):
    """Sharding + network cost are timing-only: functional output and
    scheduling decisions match the single-node run for any node count."""
    widths, reduce_tail, cap, nkernels = params
    nkernels = max(nkernels, nnodes)
    net = NetParams.zero_cost() if zero_cost else NetParams()
    one = TFluxDist(nnodes=1, net=net).execute(
        build_dag(widths, reduce_tail), nkernels=nkernels, tsu_capacity=cap
    )
    many = TFluxDist(nnodes=nnodes, net=net).execute(
        build_dag(widths, reduce_tail), nkernels=nkernels, tsu_capacity=cap
    )
    assert env_fingerprint(many.env) == env_fingerprint(one.env)
    assert many.counters["tsu.dispatched"] == one.counters["tsu.dispatched"]
    assert many.counters["tsu.post_updates"] == one.counters["tsu.post_updates"]
    assert many.nnodes == nnodes and one.nnodes == 1
