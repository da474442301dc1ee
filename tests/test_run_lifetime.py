"""A finished run is freed, not collected.

Every simulation builds an engine, a TSU Group, a memory system and a
program with its Environment.  If any of them sits in a reference cycle,
the whole run outlives its caller until Python's cycle collector happens
by, and the next run allocates on top of it (``paper_grid`` peaked at
twice its working set that way).  So a run must free itself by reference
counting the instant its caller drops the result.

Each case warms up once (first calls leave one-time garbage of their
own), then runs again with the collector disabled and requires:

* the program, its Environment and every memory system the run built to
  be dead as soon as the result is dropped — before any collection;
* a forced collection under ``gc.DEBUG_SAVEALL`` to find no object whose
  type is defined under ``repro`` and no ``repro`` function.
"""

from __future__ import annotations

import gc
import types
import weakref

import pytest

import repro.apps  # noqa: F401  (populates the benchmark registry)
from repro.apps.common import ProblemSize, get_benchmark, problem_sizes
from repro.check import run_checked
from repro.core import ProgramBuilder
from repro.core.graph import GraphBuilder
from repro.core.program import DDMProgram
from repro.exec import JobSpec, clear_baseline_memo, run_job
from repro.platforms import TFluxCell, TFluxDist, TFluxHard, TFluxSoft
from repro.runtime import NativeRuntime, SimulatedRuntime
from repro.sim.machine import BAGLE_27, XEON_8, MachineConfig
from repro.tsu.multigroup import MultiGroupHardwareAdapter


@pytest.fixture
def tracked(monkeypatch):
    """(what, weakref) for every program, Environment and memory system
    a run claims or builds."""
    refs: list[tuple[str, weakref.ref]] = []
    mark_executed = DDMProgram.mark_executed
    memory_system = MachineConfig.memory_system

    def tracking_mark_executed(self):
        refs.append(("program", weakref.ref(self)))
        refs.append(("env", weakref.ref(self.env)))
        mark_executed(self)

    def tracking_memory_system(self, *args, **kwargs):
        memsys = memory_system(self, *args, **kwargs)
        refs.append(("memsys", weakref.ref(memsys)))
        return memsys

    monkeypatch.setattr(DDMProgram, "mark_executed", tracking_mark_executed)
    monkeypatch.setattr(MachineConfig, "memory_system", tracking_memory_system)
    return refs


def _module_of(obj) -> str:
    if isinstance(obj, types.FunctionType):
        return obj.__module__ or ""
    if isinstance(obj, types.MethodType):
        return getattr(obj.__func__, "__module__", "") or ""
    return type(obj).__module__


def _describe(obj) -> str:
    if isinstance(obj, (types.FunctionType, types.MethodType)):
        return f"{_module_of(obj)}.{obj.__qualname__}"
    return f"{type(obj).__module__}.{type(obj).__qualname__} instance"


def assert_freed(run, tracked, expect=("program", "env", "memsys")) -> None:
    """Run *run* twice (warm-up, then measured) and require the measured
    run to leave nothing for the cycle collector."""
    run()
    gc.collect()
    tracked.clear()
    gc.disable()
    try:
        run()
        alive = sorted({what for what, ref in tracked if ref() is not None})
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leftovers = sorted(
            {_describe(o) for o in gc.garbage if _module_of(o).startswith("repro")}
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert set(expect) <= {what for what, _ref in tracked}, "the run went unseen"
    assert alive == [], f"alive once the result was dropped: {alive}"
    assert leftovers == [], f"cyclic garbage left by the run: {leftovers}"


def _build(bench: str = "trapez", unroll: int = 4, target: str = "S") -> DDMProgram:
    size = problem_sizes(bench, target)["small"]
    return get_benchmark(bench).build(size, unroll=unroll, max_threads=64)


# -- the simulated platforms ---------------------------------------------------------
PLATFORM_RUNS = {
    "hard": lambda: TFluxHard().execute(_build(), nkernels=4),
    "soft": lambda: TFluxSoft().execute(_build(target="N"), nkernels=4),
    "cell": lambda: TFluxCell().execute(_build(target="C"), nkernels=4),
    "dist": lambda: TFluxDist(nnodes=2).execute(_build(target="N"), nkernels=4),
    "hier": lambda: TFluxDist(nnodes=4, cluster_size=2).execute(
        _build(target="N"), nkernels=4
    ),
    "multigroup": lambda: SimulatedRuntime(
        _build(),
        BAGLE_27,
        nkernels=4,
        adapter_factory=lambda eng, tsu: MultiGroupHardwareAdapter(
            eng, tsu, n_groups=2
        ),
    ).run(),
    "exact_memory": lambda: TFluxSoft().execute(
        _build(target="N"), nkernels=4, exact_memory=True
    ),
    "tsu_capacity": lambda: TFluxHard().execute(
        _build(unroll=1), nkernels=4, tsu_capacity=64
    ),
    "qsort_rec": lambda: TFluxSoft().execute(
        _build("qsort_rec", target="N"), nkernels=4
    ),
    "quad": lambda: TFluxSoft().execute(_build("quad", target="N"), nkernels=4),
}


@pytest.mark.parametrize("case", sorted(PLATFORM_RUNS))
def test_simulated_run_is_freed_by_refcount(case, tracked):
    assert_freed(PLATFORM_RUNS[case], tracked)


def test_sequential_baseline_is_freed_by_refcount(tracked):
    assert_freed(lambda: TFluxSoft().sequential_baseline(_build()), tracked)


def test_native_run_is_freed_by_refcount(tracked):
    assert_freed(
        lambda: NativeRuntime(_build(), nkernels=2).run(),
        tracked,
        expect=("program", "env"),
    )


# -- the job path ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["execute", "sequential"])
def test_run_job_is_freed_by_refcount(mode, tracked):
    spec = JobSpec(
        platform=TFluxSoft(),
        bench="trapez",
        size=problem_sizes("trapez", "N")["small"],
        nkernels=4,
        unroll=4,
        max_threads=64,
        verify=True,
        mode=mode,
    )

    def run():
        # A sequential job records its program once per process: forget
        # the warm-up's recording so the measured job builds and runs one.
        clear_baseline_memo()
        return run_job(spec)

    assert_freed(run, tracked)


def test_failed_captured_job_is_freed_by_refcount(tracked):
    """The Cell Local-Store wall: the run raises mid-simulation, with
    processes still suspended, and the job captures the error."""
    spec = JobSpec(
        platform=TFluxCell(),
        bench="qsort",
        size=ProblemSize("qsort", "C", "n50000", {"n": 50_000}),
        nkernels=4,
        unroll=16,
        max_threads=512,
        verify=True,
        capture_errors=True,
    )

    def run():
        outcome = run_job(spec)
        assert outcome.error is not None
        assert outcome.error[0].endswith("CellLocalStoreError")

    assert_freed(run, tracked)


@pytest.mark.parametrize(
    "platform", [TFluxHard(), TFluxSoft(), TFluxCell()], ids=lambda p: p.name
)
def test_run_whose_body_raises_is_freed_by_refcount(platform, tracked):
    """A body raises while the other kernels are mid-thread or parked:
    every process left suspended is closed with the run."""

    def build():
        b = ProgramBuilder("boom")

        def body(env, i):
            if i == 5:
                raise ValueError("boom")

        work = b.thread("work", body=body, contexts=40, cost=lambda e, c: 1000)
        b.depends(work, b.thread("total"), "all")
        return b.build()

    def run():
        with pytest.raises(ValueError, match="boom"):
            platform.execute(build(), nkernels=4)

    assert_freed(run, tracked)


# -- the race checker ----------------------------------------------------------------
@pytest.mark.parametrize("bench", ["trapez", "qsort_rec"])
def test_run_checked_is_freed_by_refcount(bench, tracked):
    """The checker wraps every body, the spawned subflows' too, and runs
    them on a recording environment that points back at its session:
    once the report is out, the program has its own bodies back and
    neither the session nor a wrapper is left to the collector."""
    assert_freed(
        lambda: run_checked(_build(bench, target="N")),
        tracked,
        expect=("program", "env"),
    )


# -- graph validation ----------------------------------------------------------------
def test_validate_leaves_no_cycle(tracked):
    """Building and expanding a graph alone leaves nothing either."""

    def run():
        b = GraphBuilder("chain")
        prev = b.thread("t0")
        for i in range(1, 20):
            t = b.thread(f"t{i}")
            b.depends(prev, t)
            prev = t
        b.graph.expand()

    assert_freed(run, tracked, expect=())
