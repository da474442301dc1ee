"""Cross-backend differential suite: one Kernel core, three backends.

The same programs run through the simulated runtime and the native
(OS-thread) runtime — both dispatch through
:func:`repro.runtime.core.kernel_loop` — and the sequential baseline,
the program's own sequential loop.  These tests pin the properties that
make them *one* runtime:

* byte-identical functional output (the functional/timing split means
  the backend can never change what a program computes);
* identical span event names per scheduled unit;
* the same counter namespace from ``publish_counters`` and the same
  fetch/wait accounting rule (one fetch per TSU round trip, one wait
  per WAIT reply — the rule stated in ``kernel_loop``'s docstring).
"""

from collections import Counter as Multiset

import numpy as np
import pytest

from repro.apps import get_benchmark, problem_sizes
from repro.core import ProgramBuilder
from repro.core.dynamic import Subflow
from repro.obs import KernelAccount, Tracer
from repro.runtime.core import (
    Fetch,
    FetchKind,
    blocking_step,
    run_kernel_blocking,
)
from repro.core.dthread import DThreadInstance
from repro.runtime.native import NativeRuntime
from repro.platforms import TFluxCell, TFluxDist, TFluxHard, TFluxSoft
from repro.runtime.simdriver import SimulatedRuntime
from repro.sim.machine import BAGLE_27

NKERNELS = 4


# -- program builders (fresh per run: programs are single-use) -----------------
def build_trapez():
    bench = get_benchmark("trapez")
    size = problem_sizes("trapez", "N")["small"]
    return bench.build(size, unroll=8, max_threads=64), None


def build_blocked(tsu_capacity=6):
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
    return b.build(), tsu_capacity


def build_dynspawn():
    """A data-driven spawn tree: the graph unrolls at run time."""
    nleaves = 8
    b = ProgramBuilder("dynspawn")
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
    return b.build(), None


def build_dyncond():
    """A conditional diamond with a dead chain: every backend must
    squash the same instances and fire the join the same way."""
    b = ProgramBuilder("dyncond")
    b.env.alloc("out", 5)

    def w(slot, value):
        return lambda env, _ctx: env.array("out").__setitem__(slot, value)

    t_pick = b.thread("pick", body=lambda env, _ctx: 1)
    t_left = b.thread("left", body=w(0, 1))
    t_right = b.thread("right", body=w(1, 2))
    t_rdead = b.thread("rdead", body=w(2, 3))
    t_join = b.thread("join", body=w(3, 7))
    b.cond(t_pick, t_left, 1)
    b.cond(t_pick, t_right, 2)
    b.depends(t_right, t_rdead)
    b.depends(t_left, t_join)
    b.depends(t_right, t_join)
    return b.build(), 3


PROGRAMS = {
    "trapez": build_trapez,
    "blocked": build_blocked,
    "dynspawn": build_dynspawn,
    "dyncond": build_dyncond,
}


# -- the three backends --------------------------------------------------------
def run_sim(builder):
    prog, cap = builder()
    return SimulatedRuntime(
        prog, BAGLE_27, nkernels=NKERNELS, tsu_capacity=cap, tracer=Tracer()
    ).run()


def run_native(builder):
    prog, cap = builder()
    return NativeRuntime(
        prog, nkernels=NKERNELS, tsu_capacity=cap, tracer=Tracer()
    ).run()


def run_sequential(builder):
    prog, _ = builder()
    return TFluxHard(BAGLE_27).sequential_baseline(prog, tracer=Tracer())


BACKENDS = {"sim": run_sim, "native": run_native, "sequential": run_sequential}


def env_fingerprint(env):
    """Every array (as raw bytes) and scalar the program produced."""
    fp = {}
    for name in env.names():
        value = env[name]
        fp[name] = value.tobytes() if isinstance(value, np.ndarray) else value
    return fp


def span_names(result, kind):
    return Multiset(s.name for s in result.spans if s.kind == kind)


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def runs(request):
    builder = PROGRAMS[request.param]
    return {name: run for name, run in
            ((name, fn(builder)) for name, fn in BACKENDS.items())}


# -- functional equivalence ----------------------------------------------------
def test_functional_output_byte_identical(runs):
    fps = {name: env_fingerprint(r.env) for name, r in runs.items()}
    assert fps["sim"] == fps["native"] == fps["sequential"]


def test_same_dthreads_executed(runs):
    totals = {name: r.total_dthreads for name, r in runs.items()}
    assert totals["sim"] == totals["native"] == totals["sequential"]


# -- span equivalence ----------------------------------------------------------
def test_thread_span_names_identical(runs):
    names = {name: span_names(r, "thread") for name, r in runs.items()}
    assert names["sim"] == names["native"] == names["sequential"]


# -- the span path: only a collecting probe names an instance ------------------
@pytest.fixture
def name_reads(monkeypatch):
    """Count ``DThreadInstance.name`` reads while the test runs."""
    reads = []
    plain = DThreadInstance.name

    def counted(inst):
        reads.append(inst.iid)
        return plain.fget(inst)

    monkeypatch.setattr(DThreadInstance, "name", property(counted))
    return reads


@pytest.mark.parametrize(
    "platform",
    [TFluxHard(), TFluxSoft(), TFluxCell(), TFluxDist(nnodes=2)],
    ids=lambda p: p.name,
)
@pytest.mark.parametrize("program", ["trapez", "blocked", "dyncond"])
def test_untraced_sim_run_reads_no_instance_name(platform, program, name_reads):
    """The Kernel loop hands spans the instance itself: with the default
    probe no platform's run formats a single DThread, Inlet or Outlet
    name."""
    prog, cap = PROGRAMS[program]()
    result = platform.execute(prog, nkernels=NKERNELS, tsu_capacity=cap)
    assert result.total_dthreads > 0 and result.spans == []
    assert name_reads == []


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_traced_spans_identical_sim_native(program, name_reads):
    """Under a Tracer every span is named when it is recorded, once, and
    the sim and native backends record the same (name, kind) spans."""
    sim = run_sim(PROGRAMS[program])
    assert len(name_reads) == len(sim.spans)
    native = run_native(PROGRAMS[program])
    assert Multiset((s.name, s.kind) for s in sim.spans) == Multiset(
        (s.name, s.kind) for s in native.spans
    )
    assert all(type(s.name) is str for s in sim.spans + native.spans)


def test_inlet_outlet_span_names_identical_sim_native(runs):
    # The sequential baseline has no blocks to load/clear; sim and native
    # must agree on every Inlet/Outlet they scheduled.
    for kind in ("inlet", "outlet"):
        assert span_names(runs["sim"], kind) == span_names(runs["native"], kind)


# -- counter / accounting equivalence ------------------------------------------
def test_tsu_counter_namespace_identical(runs):
    def tsu_keys(result):
        return {k for k in result.counters.as_dict() if k.startswith("tsu.")}

    assert tsu_keys(runs["sim"]) == tsu_keys(runs["native"])


@pytest.mark.parametrize("backend", ["sim", "native"])
def test_fetch_and_wait_accounting_matches_tsu(runs, backend):
    """The satellite fix pinned: per-kernel fetch/wait counts follow one
    rule on every backend — they must sum to the TSU's own counters (the
    native runtime used to double-count fetches inside its WAIT loop)."""
    r = runs[backend]
    assert sum(k.fetches for k in r.kernels) == r.counters["tsu.fetches"]
    assert sum(k.waits for k in r.kernels) == r.counters["tsu.waits"]


def test_sequential_baseline_accounting(runs):
    """One kernel, one fetch per instance plus the EXIT reply, no waits."""
    r = runs["sequential"]
    (k,) = r.kernels
    assert k.dthreads == r.total_dthreads
    assert k.fetches == k.dthreads + 1
    assert k.waits == 0


# -- the step machine owns the functional half ----------------------------------
class _PricingOnlyBackend:
    """A minimal blocking KernelBackend with *no* way to run a body: it
    feeds the program's instances in id order, every step is free, and
    it logs the pricing/completion calls it receives.  ``now`` is the
    log length, so ``since`` says where in the log the body started."""

    stop_requested = False

    def __init__(self, program, log):
        self.program = program
        self.log = log
        self._pending = list(program.expanded().instances)

    def now(self, kernel):
        return len(self.log)

    def charge_runtime(self, kernel, since):
        pass

    def emit_span(self, kernel, name, kind, start, end):
        pass

    @blocking_step
    def fetch(self, kernel):
        if not self._pending:
            return Fetch(FetchKind.EXIT)
        inst = self._pending.pop(0)
        return Fetch(FetchKind.THREAD, instance=inst, local_iid=inst.iid)

    @blocking_step
    def charge_thread(self, kernel, fetch, since):
        self.log.append(("charge", fetch.instance.template.name, since))

    @blocking_step
    def complete(self, kernel, fetch, outcome):
        self.log.append(("complete", fetch.instance.template.name, outcome))


def test_kernel_loop_runs_bodies_and_hands_outcomes_to_complete():
    """kernel_loop itself calls each body exactly once, then asks the
    backend to price it (``charge_thread``) and to complete it with the
    very object the body returned — None, a branch key, a Subflow."""
    log = []
    spawned = Subflow("spawned")
    spawned.thread("leaf")
    outcomes = {"static": None, "branch": 7, "spawn": spawned}

    b = ProgramBuilder("protocol")
    for name, outcome in outcomes.items():
        def body(env, ctx, name=name, outcome=outcome):
            assert env is b.env
            log.append(("body", name))
            return outcome

        b.thread(name, body=body)
    backend = _PricingOnlyBackend(b.build(), log)
    assert not hasattr(backend, "run_thread")
    account = KernelAccount(0)
    run_kernel_blocking(backend, 0, account)

    assert [entry[:2] for entry in log] == [
        (step, name)
        for name in outcomes
        for step in ("body", "charge", "complete")
    ]
    for i, (name, outcome) in enumerate(outcomes.items()):
        _, charge, complete = log[3 * i:3 * i + 3]
        assert charge[2] == 3 * i  # priced from the instant the body started
        assert complete[2] is outcome  # identity, not equality
    assert (account.dthreads, account.fetches, account.waits) == (3, 4, 0)
