"""The ``unrolls="auto"`` adaptive search (repro.exec.pool).

The A2 protocol takes the best speedup over the unroll grid; the
adaptive search must find the *same* best cell (unroll, speedup —
earliest-tie-break included) while simulating strictly fewer points, and
its probes must route through the same job/caching machinery as the
grid.
"""

import pytest

from repro.apps.common import ProblemSize
from repro.exec import UNROLL_LADDER, EvalRequest, clear_baseline_memo, evaluate_many
from repro.exec.pool import _AUTO_PROBES, _auto_frontier, JobOutcome
from repro.platforms import TFluxHard, TFluxSoft

SIZES = {
    "trapez": ProblemSize("trapez", "S", "t", {"k": 12}),
    "fft": ProblemSize("fft", "S", "t", {"n": 32}),
    "qsort": ProblemSize("qsort", "S", "t", {"n": 2048}),
}


@pytest.fixture(autouse=True)
def _fresh_baselines():
    clear_baseline_memo()
    yield
    clear_baseline_memo()


@pytest.mark.parametrize(
    "platform_cls, bench, nkernels",
    [
        (TFluxHard, "trapez", 8),
        (TFluxHard, "fft", 4),
        (TFluxSoft, "qsort", 4),
    ],
)
def test_auto_matches_grid_with_fewer_simulations(platform_cls, bench, nkernels):
    platform = platform_cls()
    size = SIZES[bench]
    grid = evaluate_many(
        [EvalRequest(platform, bench, size, nkernels)], cache=None
    )[0]
    auto = evaluate_many(
        [EvalRequest(platform, bench, size, nkernels, unrolls="auto")],
        cache=None,
    )[0]
    assert auto.best_unroll == grid.best_unroll
    assert auto.speedup == pytest.approx(grid.speedup, rel=0, abs=0)
    # per_unroll holds exactly the evaluated points: strictly fewer sims.
    assert len(auto.per_unroll) < len(UNROLL_LADDER)
    assert set(auto.per_unroll) <= set(UNROLL_LADDER)
    # Every probed point agrees with the grid's measurement of it.
    for unroll, speedup in auto.per_unroll.items():
        assert speedup == pytest.approx(grid.per_unroll[unroll])


def test_batched_auto_and_grid_requests_mix():
    platform = TFluxHard()
    size = SIZES["trapez"]
    evaluations = evaluate_many(
        [
            EvalRequest(platform, "trapez", size, 4, unrolls="auto"),
            EvalRequest(platform, "trapez", size, 4),
        ],
        cache=None,
    )
    assert evaluations[0].best_unroll == evaluations[1].best_unroll
    assert evaluations[0].speedup == pytest.approx(evaluations[1].speedup)


def test_bad_unrolls_string_rejected():
    platform = TFluxHard()
    with pytest.raises(ValueError, match="'auto'"):
        evaluate_many(
            [EvalRequest(platform, "trapez", SIZES["trapez"], 4, unrolls="fast")],
            cache=None,
        )


# -- the frontier rule, in isolation ------------------------------------------
def _outcome(cycles):
    return JobOutcome(cycles=cycles, region_cycles=cycles)


def test_frontier_expands_neighbours_of_best():
    seq = 1000
    evaluated = {1: _outcome(500), 8: _outcome(250), 64: _outcome(400)}
    assert _auto_frontier(evaluated, seq) == [4, 16]


def test_frontier_plateau_slides_left():
    """Equal speedups keep the earliest unroll (the _assemble rule), so a
    plateau walks toward smaller factors until it is bracketed."""
    seq = 1000
    evaluated = {1: _outcome(500), 8: _outcome(250), 64: _outcome(400)}
    evaluated[4] = _outcome(250)  # ties 8 -> best moves to 4
    evaluated[16] = _outcome(300)
    assert _auto_frontier(evaluated, seq) == [2]
    evaluated[2] = _outcome(260)
    assert _auto_frontier(evaluated, seq) == []  # bracketed: done


def test_frontier_initial_probes_cover_ladder_extremes():
    assert _AUTO_PROBES[0] == UNROLL_LADDER[0]
    assert _AUTO_PROBES[-1] == UNROLL_LADDER[-1]


# -- the §5 loop's call sequence -----------------------------------------------
def _record_run_jobs(monkeypatch):
    """Let ``evaluate_many`` run for real, keeping each ``run_jobs`` call's
    spec list and outcomes."""
    from repro.exec import pool

    calls = []
    real = pool.run_jobs

    def recording(specs, jobs=None, cache=None):
        specs = list(specs)
        outcomes = real(specs, jobs=jobs, cache=cache)
        calls.append((specs, outcomes))
        return outcomes

    monkeypatch.setattr(pool, "run_jobs", recording)
    return calls


def _cell(spec):
    return (spec.platform.name, spec.nkernels, spec.unroll, spec.mode)


def test_evaluate_many_call_sequence(monkeypatch):
    """Round 0 is every cell's par specs in request order (explicit grid
    or the auto probes) followed by one baseline per request, of which
    ``run_jobs`` runs each distinct (platform, bench, size) once; every
    later round is exactly the frontier of each auto cell, in request
    order; the loop stops when every frontier is empty."""
    from repro.exec import pool

    calls = _record_run_jobs(monkeypatch)
    ran = []
    real_run_job = pool.run_job

    def recording_run_job(spec):
        ran.append(spec)
        return real_run_job(spec)

    monkeypatch.setattr(pool, "run_job", recording_run_job)
    hard, soft, size = TFluxHard(), TFluxSoft(), SIZES["trapez"]
    requests = [
        EvalRequest(hard, "trapez", size, 4, unrolls=(2, 8)),
        EvalRequest(hard, "trapez", size, 8, unrolls="auto"),
        EvalRequest(hard, "trapez", size, 2, unrolls="auto"),
        EvalRequest(soft, "trapez", size, 4, unrolls=(1,)),
    ]
    evaluations = evaluate_many(requests, jobs=1, cache=None)

    first, outcomes = calls[0]
    par = [
        ("tfluxhard", 4, 2, "execute"), ("tfluxhard", 4, 8, "execute"),
        *[("tfluxhard", 8, u, "execute") for u in _AUTO_PROBES],
        *[("tfluxhard", 2, u, "execute") for u in _AUTO_PROBES],
        ("tfluxsoft", 4, 1, "execute"),
    ]
    assert [_cell(s) for s in first] == par + [
        *[("tfluxhard", 1, 1, "sequential")] * 3,
        ("tfluxsoft", 1, 1, "sequential"),
    ]
    assert all(not s.verify for s in first[len(par):])
    assert [_cell(s) for s in ran if s.mode == "sequential"] == [
        ("tfluxhard", 1, 1, "sequential"), ("tfluxsoft", 1, 1, "sequential"),
    ]

    # Replay the refinement from the recorded outcomes: each later call
    # is the concatenated frontiers, and the last leaves none.
    seq = outcomes[len(par)].seq_cycles
    evaluated = {
        8: dict(zip(_AUTO_PROBES, outcomes[2:5])),
        2: dict(zip(_AUTO_PROBES, outcomes[5:8])),
    }
    for specs, outcomes in calls[1:]:
        want = [
            ("tfluxhard", nk, u, "execute")
            for nk in (8, 2)
            for u in _auto_frontier(evaluated[nk], seq)
        ]
        assert want and [_cell(s) for s in specs] == want
        for spec, outcome in zip(specs, outcomes):
            evaluated[spec.nkernels][spec.unroll] = outcome
    assert all(_auto_frontier(evaluated[nk], seq) == [] for nk in (8, 2))
    assert len(calls) > 1  # at least one refinement round ran
    assert set(evaluations[1].per_unroll) == set(evaluated[8])
    assert set(evaluations[2].per_unroll) == set(evaluated[2])


def test_empty_grid_is_refused_before_anything_runs(monkeypatch):
    """A request with nothing to simulate is a caller bug: it raises a
    ``ValueError`` (an assertion would vanish under ``python -O``) before
    the batch runs anything, its neighbours' jobs included."""
    calls = _record_run_jobs(monkeypatch)
    good = EvalRequest(TFluxHard(), "trapez", SIZES["trapez"], 4, unrolls=(2,))
    empty = EvalRequest(TFluxHard(), "trapez", SIZES["trapez"], 4, unrolls=())
    with pytest.raises(ValueError, match="at least one factor"):
        evaluate_many([good, empty], jobs=1, cache=None)
    assert calls == []
    assert evaluate_many([good], jobs=1, cache=None)[0].best_unroll == 2


def test_failed_round_zero_leaves_the_next_call_working(monkeypatch):
    """``run_jobs`` raising in round 0 propagates out of ``evaluate_many``
    and leaves nothing behind: the next call evaluates the cell."""
    from repro.exec import pool

    def boom(specs, jobs=None, cache=None):
        raise RuntimeError("pool died")

    request = EvalRequest(TFluxHard(), "trapez", SIZES["trapez"], 4, unrolls=(2,))
    with monkeypatch.context() as patch:
        patch.setattr(pool, "run_jobs", boom)
        with pytest.raises(RuntimeError, match="pool died"):
            evaluate_many([request], jobs=1, cache=None)
    assert evaluate_many([request], jobs=1, cache=None)[0].best_unroll == 2


@pytest.mark.parametrize("bad", [dict(nkernels=0), dict(unrolls=(2, 0))])
def test_request_jobspec_refuses_before_anything_runs(bad, monkeypatch):
    """A cell ``JobSpec`` refuses raises out of ``evaluate_many`` before
    the batch runs anything, and the good cell evaluates on its own."""
    import dataclasses

    calls = _record_run_jobs(monkeypatch)
    good = EvalRequest(TFluxHard(), "trapez", SIZES["trapez"], 4, unrolls=(2,))
    with pytest.raises(ValueError, match="must be >= 1"):
        evaluate_many([good, dataclasses.replace(good, **bad)], jobs=1, cache=None)
    assert calls == []
    assert evaluate_many([good], jobs=1, cache=None)[0].best_unroll == 2
