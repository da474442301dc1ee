"""repro.exec: parallel/serial equivalence and the on-disk result cache.

The executor's contract is that *how* a sweep runs (in-process, through a
worker pool, or out of the cache) never changes a single cycle number.
These tests pin that contract on a reduced grid, plus the cache-key
semantics: any cost-model parameter change must invalidate.
"""

import dataclasses

import pytest

from repro.apps import problem_sizes
from repro.exec import (
    EvalRequest,
    JobSpec,
    ResultCache,
    clear_baseline_memo,
    evaluate_many,
    run_job,
    run_jobs,
    spec_digest,
)
from repro.platforms import TFluxHard

UNROLLS = (2, 8)


def _request(nkernels: int = 4) -> EvalRequest:
    return EvalRequest(
        platform=TFluxHard(),
        bench="trapez",
        size=problem_sizes("trapez", "S")["small"],
        nkernels=nkernels,
        unrolls=UNROLLS,
        verify=True,
        max_threads=256,
    )


def _spec(unroll: int = 4, **overrides) -> JobSpec:
    base = dict(
        platform=TFluxHard(),
        bench="trapez",
        size=problem_sizes("trapez", "S")["small"],
        nkernels=4,
        unroll=unroll,
        max_threads=256,
        mode="execute",
    )
    base.update(overrides)
    return JobSpec(**base)


def _key_fields(ev):
    return (
        ev.speedup,
        ev.best_unroll,
        ev.parallel_cycles,
        ev.sequential_cycles,
        ev.per_unroll,
    )


def test_parallel_pool_is_bit_identical_to_serial(monkeypatch):
    monkeypatch.delenv("TFLUX_JOBS", raising=False)
    monkeypatch.delenv("TFLUX_CACHE_DIR", raising=False)
    serial = evaluate_many([_request()], jobs=1, cache=None)[0]
    monkeypatch.setenv("TFLUX_JOBS", "4")
    parallel = evaluate_many([_request()], cache=None)[0]
    assert _key_fields(parallel) == _key_fields(serial)


def test_sweep_figure_parallel_matches_serial(monkeypatch):
    """The satellite contract: ``sweep_figure`` under ``TFLUX_JOBS=4``
    produces bit-identical Evaluation cycle counts to the serial path."""
    from repro.analysis import sweep_figure

    def grid():
        return sweep_figure(
            TFluxHard(),
            benches=("trapez", "fft"),
            kernel_counts=(2, 4),
            sizes=("small",),
            unrolls=UNROLLS,
            max_threads=256,
        )

    monkeypatch.delenv("TFLUX_JOBS", raising=False)
    monkeypatch.delenv("TFLUX_CACHE_DIR", raising=False)
    serial = grid()
    monkeypatch.setenv("TFLUX_JOBS", "4")
    parallel = grid()
    assert serial.cells.keys() == parallel.cells.keys()
    for key in serial.cells:
        assert _key_fields(serial.cells[key]) == _key_fields(parallel.cells[key])


def test_run_jobs_order_is_submission_order():
    specs = [_spec(unroll=u) for u in (8, 2, 4)]
    outcomes = run_jobs(specs, jobs=1, cache=None)
    singles = [run_job(s) for s in specs]
    assert [o.region_cycles for o in outcomes] == [
        s.region_cycles for s in singles
    ]


def test_cache_round_trip_is_bit_identical(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    cold = run_jobs([spec], jobs=1, cache=cache)[0]
    assert cache.stores == 1 and cache.misses == 1
    warm = run_jobs([spec], jobs=1, cache=cache)[0]
    assert cache.hits == 1
    assert warm.cycles == cold.cycles
    assert warm.region_cycles == cold.region_cycles
    assert warm.result.counters == cold.result.counters


def test_cached_results_never_carry_program_state(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec(verify=True)
    run_jobs([spec], jobs=1, cache=cache)
    warm = run_jobs([spec], jobs=1, cache=cache)[0]
    # Records are env-free by construction: only timing artefacts cross
    # the cache boundary, never program state.
    assert not hasattr(warm.result, "env")


def test_stale_schema_version_is_a_cache_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    digest = spec_digest(spec)
    outcome = run_jobs([spec], jobs=1, cache=cache)[0]
    stale = dataclasses.replace(
        outcome, result=dataclasses.replace(outcome.result, schema_version=0)
    )
    cache.put(digest, stale)
    assert cache.get(digest) is None  # refuses to deserialise silently


def test_cache_env_knob(tmp_path, monkeypatch):
    monkeypatch.setenv("TFLUX_CACHE_DIR", str(tmp_path))
    spec = _spec()
    run_jobs([spec], jobs=1)
    # A fresh call resolves the same cache from the environment and hits.
    cache = ResultCache(tmp_path)
    assert cache.get(spec_digest(spec)) is not None


def test_cost_parameter_change_invalidates():
    """The digest covers the platform's cost-model state: a changed TSU
    latency is a different simulation and must be a cache miss."""
    fast = _spec()
    slow = dataclasses.replace(fast, platform=TFluxHard(tsu_processing_cycles=8))
    assert spec_digest(fast) != spec_digest(slow)


def test_spec_parameters_all_reach_the_digest():
    base = _spec()
    for change in (
        dict(unroll=16),
        dict(nkernels=8),
        dict(max_threads=512),
        dict(tsu_capacity=64),
        dict(allow_stealing=True),
        dict(exact_memory=True),
        dict(mode="sequential"),
        dict(size=problem_sizes("trapez", "S")["large"]),
    ):
        other = dataclasses.replace(base, **change)
        assert spec_digest(base) != spec_digest(other), change


def test_digest_is_stable_across_calls():
    assert spec_digest(_spec()) == spec_digest(_spec())


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    digest = spec_digest(spec)
    run_jobs([spec], jobs=1, cache=cache)
    path = cache._path(digest)
    # The second blob is a well-formed PROTO opcode naming protocol 99:
    # pickle raises ValueError for it, not an UnpicklingError.
    for blob in (b"not a pickle", b"\x80\x63"):
        path.write_bytes(blob)
        assert cache.get(digest) is None, blob
    assert run_jobs([spec], jobs=1, cache=cache)[0].error is None  # recomputes
    assert cache.get(digest) is not None


def test_capture_errors_round_trips_through_cache(tmp_path):
    cache = ResultCache(tmp_path)
    # An impossible kernel count raises; capture_errors turns it into data.
    spec = _spec(nkernels=10_000, capture_errors=True)
    cold = run_jobs([spec], jobs=1, cache=cache)[0]
    warm = run_jobs([spec], jobs=1, cache=cache)[0]
    assert cold.error is not None
    assert warm.error == cold.error


@pytest.mark.parametrize(
    "bad",
    [
        dict(nkernels=0),
        dict(unroll=0),
        dict(max_threads=0),
        dict(tsu_capacity=0),
        dict(tsu_capacity=-5),
        dict(mode="evaluate"),
        dict(nkernels=-1),
    ],
)
def test_jobspec_refuses_what_can_never_run(bad):
    """A job's legal values are checked once, where the job is described:
    the harness gets the refusal at construction, the wire at admission."""
    with pytest.raises(ValueError, match=next(iter(bad))):
        _spec(**bad)


def test_job_count_accepts_the_env_spellings_as_an_argument():
    """``tflux-serve --workers`` parses through ``job_count``."""
    from repro.exec import job_count

    assert job_count("3") == 3
    assert job_count("0") == 1
    assert job_count("auto") == job_count("MAX") >= 1
    with pytest.raises(ValueError):
        job_count("many")
    # A negative count is refused as an argument exactly as in TFLUX_JOBS
    # (``--workers -3`` used to run one worker without a word).
    for negative in (-3, "-3", " -1 "):
        with pytest.raises(ValueError, match=">= 0"):
            job_count(negative)


def _count_baseline_runs(monkeypatch):
    """Instrument the sequential pricing entry point with a call counter."""
    import repro.runtime.simdriver as simdriver

    calls = []
    real = simdriver.price_sequential

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(simdriver, "price_sequential", counting)
    return calls


def test_baseline_simulated_once_per_cell(monkeypatch):
    """The §5 baseline is the canonical unroll=1 program: one sweep cell
    simulates it exactly once regardless of the unroll grid, and repeat
    batches for the same cell (e.g. a kernel-count curve) hit the
    in-process memo instead of re-simulating."""
    clear_baseline_memo()
    calls = _count_baseline_runs(monkeypatch)
    evaluate_many([_request(nkernels=2), _request(nkernels=4)], jobs=1, cache=None)
    assert len(calls) == 1  # both cells share one (platform, bench, size)
    evaluate_many([_request(nkernels=8)], jobs=1, cache=None)
    assert len(calls) == 1  # memo hit across batches
    clear_baseline_memo()
    evaluate_many([_request(nkernels=8)], jobs=1, cache=None)
    assert len(calls) == 2


def test_baseline_is_the_unroll1_program(monkeypatch):
    """sequential_cycles must equal the standalone unroll=1 baseline."""
    clear_baseline_memo()
    ev = evaluate_many([_request()], jobs=1, cache=None)[0]
    seq = run_job(_spec(unroll=1, nkernels=1, verify=False, mode="sequential"))
    assert ev.sequential_cycles == seq.seq_cycles


def test_job_count_parsing(monkeypatch):
    from repro.exec import job_count

    monkeypatch.delenv("TFLUX_JOBS", raising=False)
    assert job_count() == 1
    monkeypatch.setenv("TFLUX_JOBS", "0")
    assert job_count() == 1
    monkeypatch.setenv("TFLUX_JOBS", "6")
    assert job_count() == 6
    monkeypatch.setenv("TFLUX_JOBS", "auto")
    assert job_count() >= 1
    monkeypatch.setenv("TFLUX_JOBS", "-2")
    with pytest.raises(ValueError):
        job_count()
    assert job_count(jobs=3) == 3  # explicit argument wins


def test_baseline_memo_is_single_flight_across_threads(monkeypatch):
    """Concurrent evaluate_many calls for one cell (the serve layer's
    request handlers race exactly like this) agree on a single baseline
    simulation: one owner computes, the others block on its future."""
    import threading

    clear_baseline_memo()
    calls = _count_baseline_runs(monkeypatch)
    req = dataclasses.replace(_request(nkernels=2), unrolls=(1,))
    barrier = threading.Barrier(4)
    results, errors = [], []

    def worker():
        barrier.wait()
        try:
            results.append(evaluate_many([req], jobs=1, cache=None)[0])
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(calls) == 1  # exactly one baseline despite the 4-way race
    assert len({ev.sequential_cycles for ev in results}) == 1
    clear_baseline_memo()


def test_baseline_memo_capacity_bound(monkeypatch):
    """The memo is LRU-bounded: a long-running server sweeping many
    platform configurations cannot grow it without limit."""
    from repro.exec import pool

    clear_baseline_memo()
    monkeypatch.setattr(pool._BASELINE_MEMO, "capacity", 2)
    for i in range(5):
        fut, owner = pool._BASELINE_MEMO.claim(f"digest{i}")
        assert owner
        pool._BASELINE_MEMO.resolve(f"digest{i}", f"outcome{i}")
        assert fut.result() == f"outcome{i}"
    assert len(pool._BASELINE_MEMO) == 2
    assert "digest4" in pool._BASELINE_MEMO
    assert "digest0" not in pool._BASELINE_MEMO
    clear_baseline_memo()
    assert len(pool._BASELINE_MEMO) == 0


def test_baseline_memo_failure_not_cached():
    """A failed baseline propagates to coalesced waiters but is never
    retained — the next claim recomputes."""
    from repro.exec import pool

    clear_baseline_memo()
    fut, owner = pool._BASELINE_MEMO.claim("d")
    assert owner
    fut2, owner2 = pool._BASELINE_MEMO.claim("d")
    assert not owner2 and fut2 is fut
    pool._BASELINE_MEMO.reject("d", RuntimeError("sim died"))
    with pytest.raises(RuntimeError):
        fut2.result()
    assert "d" not in pool._BASELINE_MEMO
    fut3, owner3 = pool._BASELINE_MEMO.claim("d")
    assert owner3 and fut3 is not fut
    pool._BASELINE_MEMO.resolve("d", "ok")
    clear_baseline_memo()
