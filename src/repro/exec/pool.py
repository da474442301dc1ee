"""Parallel sweep executor for the paper-figure harness.

Every figure of the paper is a grid of *independent* simulations
(benchmarks × sizes × kernel counts × unroll factors).  This module
turns each grid cell into a picklable :class:`JobSpec`, runs the specs
through a process pool (``TFLUX_JOBS`` workers), and reassembles the
results in deterministic submission order.  Workers rebuild their
program fresh from the benchmark registry — the single-run-program
invariant (a ``DDMProgram``'s ``Environment`` is mutated by execution)
is preserved by construction, because a program object never crosses a
process boundary.

Two job modes exist:

* ``"execute"`` — a single parallel run (the ablation grids that sweep
  runtime parameters, and the parallel side of every speedup cell).
* ``"sequential"`` — the §5 baseline alone: the *original* sequential
  program (unroll=1) timed on one core.  :func:`evaluate_many` issues at
  most one of these per distinct (platform configuration, bench, size)
  cell and additionally memoises the outcome in-process
  (:data:`_BASELINE_MEMO`), so a sweep only pays for its parallel side;
  the disk cache gives the baseline its own dedicated key because
  ``mode`` participates in :func:`repro.exec.cache.spec_digest`.

Results are transparently memoised through the content-addressed disk
cache (:mod:`repro.exec.cache`) when ``TFLUX_CACHE_DIR`` is set.

Knobs (both read at call time, so tests can monkeypatch):

* ``TFLUX_JOBS`` — worker processes: unset/``0``/``1`` = serial in
  process, ``N`` = that many workers, ``auto`` = ``os.cpu_count()``.
* ``TFLUX_CACHE_DIR`` — result cache directory; unset = no caching.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.exec.cache import ResultCache, cache_from_env, spec_digest
from repro.exec.singleflight import SingleFlightLRU

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.apps.common import ProblemSize
    from repro.obs import RunRecord
    from repro.platforms.base import Evaluation, Platform

__all__ = [
    "JobSpec",
    "JobOutcome",
    "EvalRequest",
    "UNROLL_LADDER",
    "job_count",
    "pool_context",
    "run_jobs",
    "evaluate_many",
    "clear_baseline_memo",
]

ENV_JOBS = "TFLUX_JOBS"

#: Sentinel: "resolve the cache from the environment".
_ENV_CACHE = object()


def job_count(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit *jobs* or the ``TFLUX_JOBS`` knob."""
    if jobs is not None:
        return max(1, int(jobs))
    raw = os.environ.get(ENV_JOBS, "").strip().lower()
    if not raw or raw == "0":
        return 1
    if raw in ("auto", "max"):
        return os.cpu_count() or 1
    n = int(raw)
    if n < 0:
        raise ValueError(f"{ENV_JOBS} must be >= 0, got {n}")
    return max(1, n)


@dataclass(frozen=True)
class JobSpec:
    """One picklable simulation job (a single grid cell at one unroll).

    The platform object carries the complete cost-model configuration
    (machine latencies, TSU cost tables, Cell parameters), so the spec
    doubles as the cache key — see :func:`repro.exec.cache.spec_digest`.
    """

    platform: "Platform"
    bench: str
    size: "ProblemSize"
    nkernels: int
    unroll: int
    max_threads: int = 4096
    verify: bool = False
    #: "execute" is one parallel run, "sequential" the §5 baseline alone.
    mode: str = "execute"
    tsu_capacity: Optional[int] = None
    exact_memory: bool = False
    allow_stealing: bool = False
    #: Attach a collecting probe to the parallel run and carry its spans
    #: in the outcome's RunRecord (off by default: span lists can be
    #: large and most sweeps only need counters and cycles).
    collect_spans: bool = False
    #: Capture exceptions from the run as part of the outcome instead of
    #: raising (used by grids whose interesting result *is* the failure,
    #: e.g. the Cell Local-Store capacity wall).
    capture_errors: bool = False
    #: "" = no checking; "races" = gate the job on a clean dynamic race
    #: check (one extra functional run under :mod:`repro.check`; a
    #: finding raises :class:`repro.check.RaceCheckError`, captured like
    #: any job error when ``capture_errors`` is set).  Participates in
    #: the cache digest like every other field.
    check: str = ""


@dataclass
class JobOutcome:
    """What one job returns (and what the disk cache stores).

    ``result`` is the parallel run's telemetry as the env-free,
    schema-versioned :class:`~repro.obs.RunRecord` — functional output is
    verified inside the job, then only timing artefacts cross the
    process/cache boundary (never program state).
    """

    cycles: int
    region_cycles: int
    seq_cycles: Optional[int] = None
    result: Optional["RunRecord"] = None
    #: (fully-qualified exception class, message) when captured.
    error: Optional[tuple[str, str]] = None

    @property
    def measured_cycles(self) -> int:
        """The §5 measured quantity: region cycles, else total cycles."""
        return self.region_cycles or self.cycles


def run_job(spec: JobSpec) -> JobOutcome:
    """Execute one job in this process.

    Builds the program fresh — never reuses a program object — runs
    the parallel simulation (or the sequential baseline in
    ``"sequential"`` mode), verifies the functional results against the
    benchmark oracle while the live ``Environment`` is still at hand,
    and returns the outcome carrying only the run's RunRecord.
    """
    import repro.apps  # ensures the benchmark registry is populated

    bench = repro.apps.get_benchmark(spec.bench)
    platform = spec.platform
    try:
        check_report = None
        if spec.check:
            if spec.check != "races":
                raise ValueError(
                    f"unknown check {spec.check!r}; expected '' or 'races'"
                )
            from repro.check import RaceCheckError, run_checked

            check_prog = bench.build(
                spec.size, unroll=spec.unroll, max_threads=spec.max_threads
            )
            check_report = run_checked(check_prog)
            if not check_report.ok:
                raise RaceCheckError(check_report)
        if spec.mode == "sequential":
            prog = bench.build(
                spec.size, unroll=spec.unroll, max_threads=spec.max_threads
            )
            seq = platform.sequential_baseline(
                prog, exact_memory=spec.exact_memory
            )
            if spec.verify:
                bench.verify(prog.env, spec.size)
            return JobOutcome(
                cycles=seq.cycles,
                region_cycles=seq.region_cycles,
                seq_cycles=seq.region_cycles or seq.cycles,
            )
        tracer = None
        if spec.collect_spans:
            from repro.obs import Tracer

            tracer = Tracer()
        prog = bench.build(spec.size, unroll=spec.unroll, max_threads=spec.max_threads)
        par = platform.execute(
            prog,
            nkernels=spec.nkernels,
            tsu_capacity=spec.tsu_capacity,
            exact_memory=spec.exact_memory,
            allow_stealing=spec.allow_stealing,
            tracer=tracer,
        )
        if spec.verify:
            bench.verify(par.env, spec.size)
        if check_report is not None:
            check_report.publish(par.counters)
        return JobOutcome(
            cycles=par.cycles,
            region_cycles=par.region_cycles,
            result=par.to_record(),
        )
    except Exception as exc:
        if not spec.capture_errors:
            raise
        qualname = f"{type(exc).__module__}.{type(exc).__qualname__}"
        return JobOutcome(0, 0, error=(qualname, str(exc)))


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every harness pool uses.

    fork inherits the imported simulator + benchmark registry, which
    keeps worker start-up cheap; fall back where fork is unavailable.
    The serving layer (:mod:`repro.serve`) builds its persistent pool
    from the same context so worker behaviour is identical.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_jobs(
    specs: Iterable[JobSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] | object = _ENV_CACHE,
) -> list[JobOutcome]:
    """Run *specs*, returning outcomes in the order the specs were given.

    Cache hits short-circuit; the remaining jobs run in a process pool
    of :func:`job_count` workers (serially in-process when that is 1).
    The returned list order never depends on completion order, so
    parallel and serial sweeps are interchangeable.
    """
    specs = list(specs)
    if cache is _ENV_CACHE:
        cache = cache_from_env()
    njobs = job_count(jobs)

    results: list[Optional[JobOutcome]] = [None] * len(specs)
    digests: list[Optional[str]] = [None] * len(specs)
    pending: list[int] = []
    for i, spec in enumerate(specs):
        if cache is not None:
            digests[i] = spec_digest(spec)
            hit = cache.get(digests[i])
            if hit is not None:
                results[i] = hit
                continue
        pending.append(i)

    if pending:
        if njobs > 1 and len(pending) > 1:
            workers = min(njobs, len(pending))
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=pool_context()
            ) as pool:
                for i, outcome in zip(
                    pending, pool.map(run_job, [specs[i] for i in pending])
                ):
                    results[i] = outcome
        else:
            for i in pending:
                results[i] = run_job(specs[i])
        if cache is not None:
            for i in pending:
                cache.put(digests[i], results[i])
    return results  # type: ignore[return-value]


# -- the paper's measurement protocol, batched --------------------------------

#: The canonical A2 unroll grid (Table 2's ladder).
UNROLL_LADDER = (1, 2, 4, 8, 16, 32, 64)

#: Initial probes of the ``unrolls="auto"`` adaptive search: the two
#: extremes plus the ladder midpoint.
_AUTO_PROBES = (1, 8, 64)


@dataclass(frozen=True)
class EvalRequest:
    """One figure cell: best-over-unrolls speedup for (bench, size, nk).

    ``unrolls`` is either an explicit grid (every factor simulated) or
    the string ``"auto"``: an adaptive search over :data:`UNROLL_LADDER`
    that probes the extremes and midpoint, then hill-climbs by
    simulating the unevaluated ladder neighbours of the current best
    until the best is bracketed.  Ties keep the earliest unroll — the
    same rule as the full grid — so equal-speedup plateaus slide left.
    Typical cells finish in 4–6 simulations instead of 7; every
    simulation still routes through the same job specs, process pool and
    content-addressed disk cache as the full grid.
    """

    platform: "Platform"
    bench: str
    size: "ProblemSize"
    nkernels: int
    unrolls: "tuple[int, ...] | str" = UNROLL_LADDER
    verify: bool = True
    max_threads: int = 4096


#: In-process single-flight memo of baseline outcomes, keyed by the
#: baseline JobSpec's cache digest.  The baseline depends only on
#: (platform configuration, bench, size, exact memory model) — never on
#: the sweep's kernel counts or unroll grid — so consecutive
#: ``evaluate_many`` batches (e.g. a speedup curve over nkernels) reuse
#: it without re-simulating, and *concurrent* calls agree on one owner
#: per digest.  Bounded, so a long-running server sweeping many platform
#: configurations cannot grow it without limit; real sweeps hold a
#: handful of cells.
_BASELINE_MEMO = SingleFlightLRU(256)


def clear_baseline_memo() -> None:
    """Forget memoised sequential baselines (tests / cost-model sweeps)."""
    _BASELINE_MEMO.clear()


def _baseline_spec(req: EvalRequest) -> JobSpec:
    """The canonical §5 baseline job for a figure cell.

    "We compare the parallel execution against the *original* sequential
    program" — unroll=1, one core, no TFlux overheads.  The spec is
    independent of the request's kernel count and unroll grid, which is
    what makes it shareable across a whole sweep.
    """
    return JobSpec(
        platform=req.platform,
        bench=req.bench,
        size=req.size,
        nkernels=1,
        unroll=1,
        max_threads=req.max_threads,
        verify=False,
        mode="sequential",
    )


def _par_spec(req: EvalRequest, unroll: int) -> JobSpec:
    return JobSpec(
        platform=req.platform,
        bench=req.bench,
        size=req.size,
        nkernels=req.nkernels,
        unroll=unroll,
        max_threads=req.max_threads,
        verify=req.verify,
        mode="execute",
    )


def _auto_frontier(
    evaluated: dict[int, JobOutcome], seq_cycles: int
) -> list[int]:
    """Next unrolls the adaptive search wants: the unevaluated ladder
    neighbours of the current best (earliest-tie-break, same rule as
    :func:`_assemble`).  Empty means the best is bracketed — done."""
    best_u: Optional[int] = None
    best_s: Optional[float] = None
    for u in UNROLL_LADDER:
        if u not in evaluated:
            continue
        s = seq_cycles / evaluated[u].measured_cycles
        if best_s is None or s > best_s:
            best_u, best_s = u, s
    assert best_u is not None
    k = UNROLL_LADDER.index(best_u)
    return [
        UNROLL_LADDER[j]
        for j in (k - 1, k + 1)
        if 0 <= j < len(UNROLL_LADDER) and UNROLL_LADDER[j] not in evaluated
    ]


def evaluate_many(
    requests: Sequence[EvalRequest],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] | object = _ENV_CACHE,
) -> list["Evaluation"]:
    """Evaluate a batch of figure cells, fanning all unroll jobs at once.

    Flattening the whole batch before pooling maximises parallelism (a
    figure grid becomes cells × unrolls independent parallel jobs).  The
    sequential baseline is the canonical unroll=1 program, simulated at
    most once per distinct (platform configuration, bench, size) cell:
    duplicates within the batch collapse to one job, and outcomes are
    memoised in-process so later batches of the same sweep pay nothing.
    Each unroll's speedup is measured against that baseline; ties keep
    the earliest unroll.

    ``unrolls="auto"`` cells start with the :data:`_AUTO_PROBES` rungs in
    the same first batch, then refine in batched rounds: each round
    simulates, for every still-active auto cell, the unevaluated ladder
    neighbours of its current best — all cells' round jobs share one
    pool invocation and one cache pass.
    """
    requests = list(requests)
    if cache is _ENV_CACHE:
        cache = cache_from_env()
    grids: list[Optional[tuple[int, ...]]] = []
    for req in requests:
        if isinstance(req.unrolls, str):
            if req.unrolls != "auto":
                raise ValueError(
                    f"unrolls must be a tuple of factors or 'auto', "
                    f"got {req.unrolls!r}"
                )
            grids.append(None)
        else:
            grids.append(tuple(req.unrolls))

    par_specs: list[JobSpec] = []
    slices: list[tuple[int, int]] = []
    for req, grid in zip(requests, grids):
        start = len(par_specs)
        for unroll in (grid if grid is not None else _AUTO_PROBES):
            par_specs.append(_par_spec(req, unroll))
        slices.append((start, len(par_specs)))

    # One baseline job per distinct cell not already memoised; baselines
    # ride in the same run_jobs call as the parallel specs so the whole
    # batch shares one pool (and one cache pass).
    seq_digests: list[str] = []
    seq_futures: dict[str, Future] = {}
    seq_position: dict[str, int] = {}
    seq_specs: list[JobSpec] = []
    owned: list[str] = []
    for req in requests:
        spec = _baseline_spec(req)
        digest = spec_digest(spec)
        seq_digests.append(digest)
        if digest not in seq_futures:
            fut, leader = _BASELINE_MEMO.claim(digest)
            seq_futures[digest] = fut
            if leader:
                owned.append(digest)
                seq_position[digest] = len(seq_specs)
                seq_specs.append(spec)

    try:
        outcomes = run_jobs(par_specs + seq_specs, jobs=jobs, cache=cache)
    except BaseException as exc:
        for digest in owned:
            _BASELINE_MEMO.reject(digest, exc)
        raise
    seq_outcomes = outcomes[len(par_specs):]
    for digest, pos in seq_position.items():
        _BASELINE_MEMO.resolve(digest, seq_outcomes[pos])

    evaluated: list[dict[int, JobOutcome]] = [
        dict(zip(grid if grid is not None else _AUTO_PROBES, outcomes[a:b]))
        for grid, (a, b) in zip(grids, slices)
    ]

    # Adaptive refinement rounds, batched across every auto cell.
    active = [i for i, grid in enumerate(grids) if grid is None]
    while active:
        round_specs: list[JobSpec] = []
        owners: list[tuple[int, int]] = []
        still: list[int] = []
        for i in active:
            seq_cycles = seq_futures[seq_digests[i]].result().seq_cycles
            assert seq_cycles is not None
            frontier = _auto_frontier(evaluated[i], seq_cycles)
            if frontier:
                still.append(i)
                for unroll in frontier:
                    round_specs.append(_par_spec(requests[i], unroll))
                    owners.append((i, unroll))
        if not round_specs:
            break
        for (i, unroll), outcome in zip(
            owners, run_jobs(round_specs, jobs=jobs, cache=cache)
        ):
            evaluated[i][unroll] = outcome
        active = still

    return [
        _assemble(req, evaluated[i], seq_futures[seq_digests[i]].result())
        for i, req in enumerate(requests)
    ]


def _assemble(
    req: EvalRequest,
    evaluated: dict[int, JobOutcome],
    seq_outcome: JobOutcome,
) -> "Evaluation":
    from repro.platforms.base import Evaluation

    seq_best = seq_outcome.seq_cycles
    assert seq_best is not None
    best: Optional[tuple[float, int, int, Optional["RunRecord"]]] = None
    per_unroll: dict[int, float] = {}
    for unroll in sorted(evaluated):
        outcome = evaluated[unroll]
        par_cycles = outcome.measured_cycles
        speedup = seq_best / par_cycles
        per_unroll[unroll] = speedup
        if best is None or speedup > best[0]:
            best = (speedup, unroll, par_cycles, outcome.result)
    assert best is not None
    speedup, unroll, par_cycles, result = best
    return Evaluation(
        platform=req.platform.name,
        bench=req.bench,
        size_label=req.size.label,
        nkernels=req.nkernels,
        speedup=speedup,
        best_unroll=unroll,
        parallel_cycles=par_cycles,
        sequential_cycles=seq_best,
        per_unroll=per_unroll,
        result=result,
    )
