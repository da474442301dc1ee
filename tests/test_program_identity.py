"""One simulation per distinct program (repro.exec.pool).

Past the thread cap a coarser unroll builds the same program: an app's
``decomposition(size, unroll, max_threads)`` is all ``build`` reads of
those two arguments.  ``run_jobs`` runs each distinct program once among
its cache misses and hands the outcome to every spec that asked, a later
auto-unroll round reuses a program an earlier round ran, and the §5
trace memo keys on the decomposition.  These tests hold the merge to
the unmerged runs, outcome for outcome, and hold programs that differ
apart.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import repro.runtime.simdriver as simdriver
from repro.analysis.calibration import PAPER
from repro.apps import BENCHMARKS, get_benchmark, problem_sizes
from repro.apps.common import ProblemSize
from repro.exec import (
    UNROLL_LADDER, EvalRequest, JobOutcome, JobSpec, ResultCache,
    clear_baseline_memo, evaluate_many, pool, run_job, run_jobs,
)
from repro.exec.cache import spec_digest
from repro.platforms import TFluxCell, TFluxHard, TFluxSoft

#: Sizes small enough that every (unroll, max_threads) pair simulates
#: in a few milliseconds.
SIZES = {
    "trapez": {"k": 12},
    "mmult": {"n": 32},
    "qsort": {"n": 2048},
    "qsort_rec": {"n": 2048},
    "quad": {"eps": 1e-4},
    "susan": {"w": 64, "h": 32},
    "fft": {"n": 16},
}
UNROLLS = (1, 2, 3, 4, 8, 16, 32, 64, 100)
MAX_THREADS = (1, 2, 4, 8, 16, 64, 4096)
HARD = TFluxHard()


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_baseline_memo()
    yield
    clear_baseline_memo()


def _spec(bench, unroll, max_threads, **overrides):
    return JobSpec(
        **{
            "platform": HARD,
            "bench": bench,
            "size": ProblemSize(bench, "S", "t", SIZES[bench]),
            "nkernels": 4,
            "unroll": unroll,
            "max_threads": max_threads,
            "verify": True,
            **overrides,
        }
    )


def _decomposition(spec):
    return get_benchmark(spec.bench).decomposition(
        spec.size, spec.unroll, spec.max_threads
    )


#: Direct, unmerged, verified outcomes by (bench, unroll, max_threads),
#: shared by every hypothesis example.
_DIRECT: dict = {}


def _direct(spec):
    key = (spec.bench, spec.unroll, spec.max_threads)
    if key not in _DIRECT:
        _DIRECT[key] = run_job(spec)
    return _DIRECT[key]


def _counting_run_job(monkeypatch, answer):
    """Replace ``pool.run_job`` by *answer*, keeping each spec it gets."""
    calls = []

    def counting(spec):
        calls.append(spec)
        return answer(spec)

    monkeypatch.setattr(pool, "run_job", counting)
    return calls


@pytest.mark.parametrize("bench", sorted(SIZES))
def test_build_reads_unroll_and_max_threads_only_through_decomposition(
    monkeypatch, bench
):
    """Pin an app's decomposition to its value at (1, 4096): a build at
    any other pair must then run exactly as (1, 4096) does."""
    app = get_benchmark(bench)
    size = _spec(bench, 1, 4096).size
    pinned = app.decomposition(size, 1, 4096)
    reference = _direct(_spec(bench, 1, 4096))
    monkeypatch.setattr(app, "decomposition", lambda size, unroll, max_threads: pinned)
    assert run_job(_spec(bench, 64, 2)) == reference


@pytest.mark.parametrize("bench", sorted(SIZES))
@settings(max_examples=12, deadline=None)
@given(
    a=st.tuples(st.sampled_from(UNROLLS), st.sampled_from(MAX_THREADS)),
    b=st.tuples(st.sampled_from(UNROLLS), st.sampled_from(MAX_THREADS)),
)
def test_equal_decompositions_merge_and_different_ones_never_do(bench, a, b):
    """Two specs that differ only in (unroll, max_threads): with equal
    decompositions their verified direct outcomes are identical and
    ``run_jobs`` runs one; with different ones it runs both, and each
    spec gets its own program's outcome."""
    first, second = _spec(bench, *a), _spec(bench, *b)
    direct = [_direct(first), _direct(second)]
    same = _decomposition(first) == _decomposition(second)
    if same:
        assert direct[0] == direct[1]
    assert (pool._program_key(first) == pool._program_key(second)) == same

    with pytest.MonkeyPatch.context() as patch:
        calls = _counting_run_job(patch, _direct)
        merged = run_jobs([first, second], jobs=1, cache=None)
    assert merged == direct
    assert [(s.unroll, s.max_threads) for s in calls] == (
        [a] if same else [a, b]
    )


@pytest.mark.parametrize("bench", sorted(set(SIZES) - {"quad"}))
def test_clamped_unrolls_are_one_run(monkeypatch, bench):
    """One thread at most: unrolls 1 and 2 are one program for every app
    whose DThread counts the cap bounds."""
    specs = [_spec(bench, 1, 1), _spec(bench, 2, 1)]
    calls = _counting_run_job(monkeypatch, run_job)
    outcomes = run_jobs(specs, jobs=1, cache=None)
    assert len(calls) == 1 and outcomes[0] is outcomes[1]
    assert outcomes[1] == run_job(specs[1])


def test_quad_unrolls_never_merge(monkeypatch):
    """QUAD's tolerance scales with every unroll, at any thread cap."""
    specs = [_spec("quad", u, 1) for u in UNROLL_LADDER]
    assert len({_decomposition(s) for s in specs}) == len(UNROLL_LADDER)
    calls = _counting_run_job(monkeypatch, _direct)
    run_jobs(specs, jobs=1, cache=None)
    assert len(calls) == len(UNROLL_LADDER)


def test_merged_outcome_is_stored_under_every_digest(monkeypatch, tmp_path):
    """The merge runs among cache misses only and stores the one outcome
    under each spec's digest: hits and stores count specs, not runs."""
    cache = ResultCache(tmp_path)
    specs = [_spec("trapez", u, 4) for u in (1, 2, 4)]
    calls = _counting_run_job(monkeypatch, run_job)
    cold = run_jobs(specs, jobs=1, cache=cache)
    assert len(calls) == 1 and cache.stores == 3
    assert all(cache.get(spec_digest(s)) == cold[0] for s in specs)
    extra = _spec("trapez", 8, 4)
    warm = run_jobs(specs + [extra], jobs=1, cache=cache)
    assert warm[:3] == cold and len(calls) == 2 and cache.stores == 4


def test_parallel_pool_runs_each_program_once():
    specs = [_spec("trapez", 1, 16), _spec("trapez", 16, 16), _spec("trapez", 2, 16)]
    parallel = run_jobs(specs, jobs=2, cache=None)
    assert parallel == [run_job(s) for s in specs]
    assert parallel[0] == parallel[2] != parallel[1]


def test_trace_memo_records_each_program_once(monkeypatch):
    """The §5 trace memo keys on the decomposition: (1, 64) and (1, 4096)
    are one 64-chunk program, (1, 32) and (2, 4096) one 32-chunk
    program — two recordings, each priced twice."""
    recorded = []
    real = simdriver.record_sequential
    monkeypatch.setattr(
        simdriver, "record_sequential", lambda p: (recorded.append(p), real(p))[1]
    )
    specs = [
        _spec("trapez", u, m, mode="sequential", nkernels=1)
        for u, m in ((1, 64), (1, 4096), (1, 32), (2, 4096))
    ]
    assert [_decomposition(s) for s in specs] == [64, 64, 32, 32]
    seq = [run_job(s).seq_cycles for s in specs]
    assert len(recorded) == 2 and len(pool._TRACE_MEMO) == 2
    assert seq[0] == seq[1] != seq[2] == seq[3]


# -- the paper grid ------------------------------------------------------------
def _paper_requests(label):
    requests = []
    for reference, platform, nkernels, unrolls in (
        (PAPER.fig5_large_27, TFluxHard(), 27, (2, 8)),
        (PAPER.fig6_best_6, TFluxSoft(), 6, (8, 32)),
        (PAPER.fig7_best_6, TFluxCell(), 6, (16, 64)),
    ):
        for bench in reference:
            requests.append(EvalRequest(
                platform=platform,
                bench=bench,
                size=problem_sizes(bench, platform.target)[label],
                nkernels=nkernels,
                unrolls=unrolls,
                max_threads=1024,
            ))
    return requests


def _stub_outcome(spec):
    if spec.mode == "sequential":
        return JobOutcome(1, 0, seq_cycles=10_000)
    return JobOutcome(1000 + spec.unroll, 0)


def test_paper_grid_makes_39_runs_not_42(monkeypatch):
    """At size large every TRAPEZ cell's two unrolls clamp to 1,024
    chunks: 14 baselines and 25 parallel programs, where each cell
    used to run 3 jobs."""
    requests = _paper_requests("large")
    calls = _counting_run_job(monkeypatch, _stub_outcome)
    for request in requests:
        evaluate_many([request], jobs=1, cache=None)
    assert (len(requests), len(calls)) == (14, 39)
    merged = [r for r in requests if r.bench == "trapez"]
    assert len(merged) == 3
    for request in merged:
        assert len({
            get_benchmark("trapez").decomposition(request.size, u, 1024)
            for u in request.unrolls
        }) == 1


def _unmerged(request):
    """``evaluate_many([request])`` as it was before the merge: every
    unroll and the baseline run on their own."""
    evaluated = {u: run_job(pool._par_spec(request, u)) for u in request.unrolls}
    return pool._assemble(request, evaluated, run_job(pool._baseline_spec(request)))


def test_merged_trapez_cells_equal_the_unmerged_runs():
    """The three cells the merge changes evaluate exactly as before,
    field by field (speedups, cycles, best unroll, RunRecord)."""
    for request in _paper_requests("large"):
        if request.bench == "trapez":
            clear_baseline_memo()
            assert evaluate_many([request], jobs=1, cache=None)[0] == _unmerged(request)


def test_auto_search_on_one_program_simulates_once(monkeypatch):
    """TRAPEZ Large at 1,024 threads: every ladder rung is one program.
    The auto search's probes merge in round 0 and its refinement rung
    reuses that run; it returns the explicit ladder's best cell, and
    every rung it lists carries the ladder's speedup."""
    request = EvalRequest(
        TFluxHard(), "trapez", problem_sizes("trapez")["large"], 27,
        unrolls="auto", max_threads=1024,
    )
    calls = _counting_run_job(monkeypatch, run_job)
    auto = evaluate_many([request], jobs=1, cache=None)[0]
    assert [s.mode for s in calls] == ["execute", "sequential"]
    clear_baseline_memo()
    del calls[:]
    ladder = evaluate_many(
        [dataclasses.replace(request, unrolls=UNROLL_LADDER)], jobs=1, cache=None
    )[0]
    assert [s.mode for s in calls] == ["execute", "sequential"]
    assert dataclasses.replace(auto, per_unroll={}) == dataclasses.replace(
        ladder, per_unroll={}
    )
    assert auto.per_unroll == {u: ladder.per_unroll[u] for u in auto.per_unroll}
    assert set(auto.per_unroll) == {1, 2, 8, 64}
