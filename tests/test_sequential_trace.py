"""The §5 baseline as one recording per program, priced per machine.

``record_sequential`` runs a program once and keeps its cost and access
callbacks; ``price_sequential`` times that recording on one machine.
These tests hold a trace priced anywhere to a fresh
``Platform.sequential_baseline`` there, and the exec tier's trace memo to one recording per distinct
program, forgotten by ``clear_baseline_memo`` and never cached when the
recording fails its oracle.
"""

import dataclasses
import threading
import time

import pytest

import repro.runtime.simdriver as simdriver
from repro.analysis.calibration import PAPER
from repro.apps import BENCHMARKS, get_benchmark, problem_sizes
from repro.core.environment import Environment
from repro.exec import (
    EvalRequest, JobSpec, clear_baseline_memo, evaluate_many, pool, run_job,
)
from repro.obs import Tracer
from repro.platforms import TFluxCell, TFluxDist, TFluxHard, TFluxSoft
from repro.runtime.simdriver import price_sequential, record_sequential

PLATFORMS = [TFluxHard(), TFluxSoft(), TFluxCell(), TFluxDist(nnodes=2)]


def _build(name, unroll=1):
    return get_benchmark(name).build(problem_sizes(name, "S")["small"], unroll=unroll)


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_baseline_memo()
    yield
    clear_baseline_memo()


def _spy(monkeypatch, name):
    """Count calls of a simdriver entry point (``pool`` imports it lazily)."""
    calls = []
    real = getattr(simdriver, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(simdriver, name, counting)
    return calls


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_one_trace_prices_like_a_fresh_baseline_on_every_machine(name, order):
    """quad's epilogue cost reads the env and qsort_rec spawns subflows:
    both were evaluated on the live env when recorded, so a recording
    priced on any machine, in any order, is that machine's baseline."""
    trace = record_sequential(_build(name))
    platforms = PLATFORMS if order == "forward" else PLATFORMS[::-1]
    for platform in platforms:
        tracer = Tracer()
        priced = price_sequential(trace, platform.machine, False, tracer)
        fresh = platform.sequential_baseline(_build(name), tracer=Tracer())
        assert priced == fresh.to_record()
        assert priced.spans == tracer.spans and priced.spans


def test_exact_memory_prices_like_a_fresh_baseline():
    trace = record_sequential(_build("qsort"))
    platform = TFluxHard()
    fresh = platform.sequential_baseline(_build("qsort"), exact_memory=True)
    assert price_sequential(trace, platform.machine, True, None) == fresh.to_record()


def test_trace_keeps_no_environment():
    prog = _build("trapez")
    trace = record_sequential(prog)
    assert not any(
        isinstance(value, Environment) for value in vars(trace).values()
    )
    lo, hi = trace.region
    assert (lo, hi) == (len(prog.prologue), len(trace.steps) - len(prog.epilogue))
    assert hi - lo == prog.ninstances


def _paper_grid_requests():
    """The 14 paper-valued cells (Figures 5-7) at size small."""
    requests = []
    for reference, platform, nkernels in (
        (PAPER.fig5_large_27, TFluxHard(), 27),
        (PAPER.fig6_best_6, TFluxSoft(), 6),
        (PAPER.fig7_best_6, TFluxCell(), 6),
    ):
        for bench in reference:
            requests.append(EvalRequest(
                platform=platform,
                bench=bench,
                size=problem_sizes(bench, platform.target)["small"],
                nkernels=nkernels,
                unrolls=(1,),
                max_threads=1024,
            ))
    return requests


def test_paper_grid_records_each_distinct_program_once(monkeypatch):
    """14 cells, 7 distinct unroll-1 programs: 7 functional baseline
    passes, 14 pricings (one per platform configuration and cell)."""
    requests = _paper_grid_requests()
    programs = {(r.bench, tuple(sorted(r.size.params.items()))) for r in requests}
    assert (len(requests), len(programs)) == (14, 7)
    recorded = _spy(monkeypatch, "record_sequential")
    priced = _spy(monkeypatch, "price_sequential")
    evaluate_many(requests, jobs=1, cache=None)
    assert len(recorded) == len(programs)
    assert len(priced) == len(requests)


def _sequential_spec(**overrides):
    return JobSpec(
        platform=overrides.pop("platform", TFluxHard()),
        bench="trapez",
        size=problem_sizes("trapez", "S")["small"],
        nkernels=1,
        unroll=1,
        mode="sequential",
        **overrides,
    )


def test_clear_baseline_memo_forgets_traces(monkeypatch):
    recorded = _spy(monkeypatch, "record_sequential")
    first = run_job(_sequential_spec())
    assert run_job(_sequential_spec(platform=TFluxSoft())).seq_cycles
    assert len(recorded) == 1 and len(pool._TRACE_MEMO) == 1
    clear_baseline_memo()
    assert len(pool._TRACE_MEMO) == 0
    assert run_job(_sequential_spec()) == first
    assert len(recorded) == 2


def test_recording_that_fails_its_oracle_is_rejected(monkeypatch):
    """Every waiter sees the leader's error, nothing is cached, and the
    next claim records afresh."""
    bench = get_benchmark("trapez")
    entered, release = threading.Event(), threading.Event()

    def failing_verify(env, size):
        entered.set()
        assert release.wait(10)
        raise RuntimeError("oracle mismatch")

    monkeypatch.setattr(bench, "verify", failing_verify)
    errors = []

    def job():
        try:
            run_job(_sequential_spec())
        except RuntimeError as exc:
            errors.append(str(exc))

    coalesced = pool._TRACE_MEMO.stats()["coalesced"]
    leader = threading.Thread(target=job)
    leader.start()
    assert entered.wait(10)
    waiters = [threading.Thread(target=job) for _ in range(2)]
    for t in waiters:
        t.start()
    deadline = time.monotonic() + 10
    while pool._TRACE_MEMO.stats()["coalesced"] < coalesced + 2:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    release.set()
    for t in [leader, *waiters]:
        t.join(10)
    assert errors == ["oracle mismatch"] * 3
    assert pool._TRACE_MEMO.inflight == 0 and len(pool._TRACE_MEMO) == 0

    monkeypatch.undo()
    recorded = _spy(monkeypatch, "record_sequential")
    assert run_job(_sequential_spec()).seq_cycles > 0
    assert len(recorded) == 1 and len(pool._TRACE_MEMO) == 1


def test_sequential_job_verifies_its_recording(monkeypatch):
    """A baseline's functional output is checked whatever ``verify`` says."""
    bench = get_benchmark("trapez")
    seen = []
    real = bench.verify
    monkeypatch.setattr(bench, "verify", lambda env, size: seen.append(real(env, size)))
    run_job(dataclasses.replace(_sequential_spec(), verify=False))
    run_job(_sequential_spec(platform=TFluxCell()))
    assert len(seen) == 1  # once per recording, not per pricing
