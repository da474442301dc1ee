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

What a job *is* is written once, on :class:`JobSpec`: its fields, their
defaults and their legal values (``__post_init__`` refuses an unknown
``mode`` and an out-of-range count at construction, for the
harness and the ``tflux-serve`` wire alike — :mod:`repro.serve.protocol`
derives its field table from ``dataclasses.fields(JobSpec)``).  What a
job *does* is written once, in :func:`run_job`: one ``build()``, one
run, one verification.  Two job modes exist:

* ``"execute"`` — a single parallel run (the ablation grids that sweep
  runtime parameters, and the parallel side of every speedup cell).
* ``"sequential"`` — the §5 baseline alone: the *original* sequential
  program (unroll=1) timed on one core.  :func:`evaluate_many` adds one
  per request to its first :func:`run_jobs` call, which runs equal ones
  once; the disk cache gives the baseline its own dedicated key because
  ``mode`` participates in :func:`repro.exec.cache.spec_digest`.  The
  functional half of a baseline does not depend on the platform: it is
  recorded and verified once per program (:data:`_TRACE_MEMO`) and each
  sequential job only prices that recording on its machine.

Past the thread cap a coarser unroll builds the same program, so a job
is identified by what it runs (:func:`_program_key`: the app's
decomposition in place of ``unroll``/``max_threads``): :func:`run_jobs`
simulates each distinct program once and :data:`_TRACE_MEMO` records
each once.

Results are transparently memoised through the content-addressed disk
cache (:mod:`repro.exec.cache`) when ``TFLUX_CACHE_DIR`` is set.

Knobs (both read at call time, so tests can monkeypatch):

* ``TFLUX_JOBS`` — worker processes: unset/``0``/``1`` = serial in
  process, ``N`` = that many workers, ``auto`` = ``os.cpu_count()``.
* ``TFLUX_CACHE_DIR`` — result cache directory; unset = no caching.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.exec.cache import ResultCache, cache_from_env, spec_digest
from repro.exec.singleflight import SingleFlightLRU

if TYPE_CHECKING:  # import cycle guard (typing only)
    from repro.apps.common import ProblemSize
    from repro.obs import RunRecord
    from repro.platforms.base import Evaluation, Platform

__all__ = [
    "JobSpec",
    "JobOutcome",
    "EvalRequest",
    "UNROLL_LADDER",
    "job_count",
    "error_pair",
    "pool_context",
    "run_jobs",
    "evaluate_many",
    "clear_baseline_memo",
]

ENV_JOBS = "TFLUX_JOBS"

#: Sentinel: "resolve the cache from the environment".
_ENV_CACHE = object()


def job_count(jobs: Optional[int | str] = None) -> int:
    """Effective worker count: explicit *jobs*, else the ``TFLUX_JOBS``
    knob — either spelt as digits or ``auto``/``max`` (every core).
    0 means one worker; a negative count is refused whichever way it
    arrives (as an argparse ``type`` that is a usage error)."""
    raw = os.environ.get(ENV_JOBS, "") if jobs is None else jobs
    if isinstance(raw, str):
        raw = raw.strip().lower()
        if raw in ("auto", "max"):
            return os.cpu_count() or 1
    n = int(raw or 0)
    if n < 0:
        what = ENV_JOBS if jobs is None else "job count"
        raise ValueError(f"{what} must be >= 0, got {n}")
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
    #: Check an "execute" job's functional output against the benchmark
    #: oracle.  A "sequential" job ignores it: its program is verified
    #: whenever it is recorded, once per memoised trace (:data:`_TRACE_MEMO`).
    verify: bool = False
    #: "execute" is one parallel run, "sequential" the §5 baseline alone.
    mode: str = "execute"
    tsu_capacity: Optional[int] = None
    exact_memory: bool = False
    allow_stealing: bool = False
    #: Capture exceptions from the run as part of the outcome instead of
    #: raising (used by grids whose interesting result *is* the failure,
    #: e.g. the Cell Local-Store capacity wall).
    capture_errors: bool = False

    def __post_init__(self) -> None:
        # The one admission test: the harness gets it at construction,
        # the wire through ``job_from_wire`` (which prints these texts).
        if self.mode not in ("execute", "sequential"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("nkernels", "unroll", "max_threads", "tsu_capacity"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class JobOutcome:
    """What one job returns (and what the disk cache stores).

    ``result`` is the parallel run's telemetry as the env-free,
    schema-versioned :class:`~repro.obs.RunRecord` — functional output is
    verified inside the job, then only timing artefacts cross the
    process/cache boundary (never program state).  An outcome is a
    shared value: ``run_jobs`` hands one to every spec of a program and
    a serve client one to every delivery of the same bytes.
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


def error_pair(exc: BaseException) -> tuple[str, str]:
    """A failed job as data: ``(fully-qualified exception class, message)``
    — what ``JobOutcome.error`` holds and a ``job_error`` reply carries."""
    return f"{type(exc).__module__}.{type(exc).__qualname__}", str(exc)


def run_job(spec: JobSpec) -> JobOutcome:
    """Execute one job in this process.

    The one place a spec becomes a program and a run: ``build()`` makes
    the program fresh each time it is called (never reuses a program
    object), the run is the parallel simulation or, in
    ``"sequential"`` mode, the §5 baseline, and the functional results
    are verified against the benchmark oracle while the live
    ``Environment`` is still at hand.  A baseline's program is built,
    recorded and verified once per process and program
    (:func:`_sequential_trace`), then priced on the job's machine.  The
    outcome carries only timing: the baseline's cycles, or the parallel
    run's RunRecord.
    """
    import repro.apps  # ensures the benchmark registry is populated

    bench = repro.apps.get_benchmark(spec.bench)
    platform = spec.platform

    def build():
        return bench.build(
            spec.size, unroll=spec.unroll, max_threads=spec.max_threads
        )

    try:
        if spec.mode == "sequential":
            from repro.runtime.simdriver import price_sequential

            run = price_sequential(
                _sequential_trace(spec, bench, build),
                platform.machine,
                spec.exact_memory,
                None,
            )
            return JobOutcome(
                run.cycles, run.region_cycles, seq_cycles=run.measured_cycles
            )
        run = platform.execute(
            build(),
            nkernels=spec.nkernels,
            tsu_capacity=spec.tsu_capacity,
            exact_memory=spec.exact_memory,
            allow_stealing=spec.allow_stealing,
        )
        if spec.verify:
            bench.verify(run.env, spec.size)
        return JobOutcome(run.cycles, run.region_cycles, result=run.to_record())
    except Exception as exc:
        if not spec.capture_errors:
            raise
        return JobOutcome(0, 0, error=error_pair(exc))


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every harness pool uses.

    fork inherits the imported simulator + benchmark registry, which
    keeps worker start-up cheap; fall back where fork is unavailable.
    The serving layer (:mod:`repro.serve`) builds its persistent pool
    from the same context so worker behaviour is identical.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _decomposition(job: "JobSpec | EvalRequest", unroll: int) -> "int | float":
    """The decomposition *job*'s app derives at *unroll* and the job's
    ``max_threads`` (:meth:`repro.apps.common.Benchmark.decomposition`)."""
    import repro.apps

    bench = repro.apps.get_benchmark(job.bench)
    return bench.decomposition(job.size, unroll, job.max_threads)


def _program_key(spec: JobSpec) -> str:
    """What *spec* runs, as a digest: every field but ``unroll`` and
    ``max_threads``, which count only through the decomposition they
    give.  Past the thread cap a coarser unroll builds the same program,
    so specs with equal keys have equal outcomes."""
    identity = {
        f.name: getattr(spec, f.name)
        for f in dataclasses.fields(spec)
        if f.name not in ("unroll", "max_threads")
    }
    identity["decomposition"] = _decomposition(spec, spec.unroll)
    return spec_digest(identity)


def run_jobs(
    specs: Iterable[JobSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] | object = _ENV_CACHE,
) -> list[JobOutcome]:
    """Run *specs*, returning outcomes in the order the specs were given.

    Each distinct digest is looked up once and cache hits short-circuit;
    of the remaining jobs, each distinct program (:func:`_program_key`)
    runs once, in a process pool of :func:`job_count` workers (serially
    in-process when that is 1), and its outcome answers — and is stored
    once under each digest of — every spec that asked for it.  The
    returned list order never depends on completion order, so parallel
    and serial sweeps are interchangeable.
    """
    specs = list(specs)
    if cache is _ENV_CACHE:
        cache = cache_from_env()
    njobs = job_count(jobs)

    results: list[Optional[JobOutcome]] = [None] * len(specs)
    digests: list[Optional[str]] = [None] * len(specs)
    looked_up: dict[str, Optional[JobOutcome]] = {}
    pending: list[int] = []
    for i, spec in enumerate(specs):
        if cache is not None:
            digest = digests[i] = spec_digest(spec)
            if digest not in looked_up:
                looked_up[digest] = cache.get(digest)
            results[i] = looked_up[digest]
            if results[i] is not None:
                continue
        pending.append(i)

    if pending:
        first: dict[str, int] = {}
        leads = [first.setdefault(_program_key(specs[i]), i) for i in pending]
        unique = list(first.values())
        if njobs > 1 and len(unique) > 1:
            workers = min(njobs, len(unique))
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=pool_context()
            ) as pool:
                for i, outcome in zip(
                    unique, pool.map(run_job, [specs[i] for i in unique])
                ):
                    results[i] = outcome
        else:
            for i in unique:
                results[i] = run_job(specs[i])
        for i, lead in zip(pending, leads):
            results[i] = results[lead]
        if cache is not None:
            for digest, i in {digests[i]: i for i in pending}.items():
                cache.put(digest, results[i])
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


#: In-process single-flight memo of recorded baselines
#: (:class:`~repro.runtime.simdriver.SequentialTrace`), keyed by the
#: program alone — ``(bench, size label, size params, decomposition)``:
#: the platform is what prices a trace, no app's ``build`` reads
#: ``size.target``, and unroll and max_threads reach it only through
#: the decomposition.  A figure's S/N/C cells that share a
#: program record it once and price it per machine.  A trace of a
#: size-large program holds 0.2–1.2 MB, so 16 of them stay under 20 MB.
_TRACE_MEMO = SingleFlightLRU(16)


def clear_baseline_memo() -> None:
    """Forget the recorded sequential baselines (:data:`_TRACE_MEMO`), so
    the next baseline job builds, records and verifies its program afresh
    (tests / cost-model sweeps)."""
    _TRACE_MEMO.clear()


def _sequential_trace(spec: JobSpec, bench, build):
    """The recorded §5 baseline of *spec*'s program, from :data:`_TRACE_MEMO`.

    The leader of a flight builds the program, records it and verifies
    its functional output against the benchmark oracle before resolving;
    a raise anywhere rejects the flight (every waiter sees the error,
    nothing is cached).
    """
    from repro.runtime.simdriver import record_sequential

    key = (
        spec.bench,
        spec.size.label,
        tuple(sorted(spec.size.params.items())),
        _decomposition(spec, spec.unroll),
    )
    fut, leader = _TRACE_MEMO.claim(key)
    if leader:
        try:
            program = build()
            trace = record_sequential(program)
            bench.verify(program.env, spec.size)
        except BaseException as exc:
            _TRACE_MEMO.reject(key, exc)
            raise
        _TRACE_MEMO.resolve(key, trace)
    return fut.result()


def _par_spec(req: EvalRequest, unroll: int) -> JobSpec:
    return JobSpec(
        platform=req.platform,
        bench=req.bench,
        size=req.size,
        nkernels=req.nkernels,
        unroll=unroll,
        max_threads=req.max_threads,
        verify=req.verify,
    )


def _baseline_spec(req: EvalRequest) -> JobSpec:
    """The canonical §5 baseline job for a figure cell.

    "We compare the parallel execution against the *original* sequential
    program" — unroll=1, one core, no TFlux overheads.  The spec is
    independent of the request's kernel count and unroll grid, so
    :func:`run_jobs` runs a batch's equal baselines once.
    """
    return dataclasses.replace(
        _par_spec(req, 1), nkernels=1, verify=False, mode="sequential"
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
    sequential baseline is the canonical unroll=1 program, one job per
    request; :func:`run_jobs` runs the equal ones of a batch once, and
    :data:`_TRACE_MEMO` keeps each program's recording across calls, so
    a later call on the same cell only prices it again.  Each unroll's
    speedup is measured against that baseline; ties keep the earliest
    unroll.

    Every round is the same loop body — simulate what the cells still
    want, scatter the outcomes, ask the auto cells what they want next.
    Round 0 is every explicit grid, the :data:`_AUTO_PROBES` rungs of
    every ``unrolls="auto"`` cell and every request's baseline, in one
    pool invocation and one cache pass; each later round is, for every
    auto cell not yet bracketed, the unevaluated ladder neighbours of
    its current best.  A rung simulates only if its decomposition is
    new to its cell: one an earlier round ran takes that outcome, so the
    search visits the rungs it always did and runs each program once.
    """
    requests = list(requests)
    if cache is _ENV_CACHE:
        cache = cache_from_env()
    todo: list[tuple[int, int]] = []
    for cell, req in enumerate(requests):
        if isinstance(req.unrolls, str) and req.unrolls != "auto":
            raise ValueError(
                f"unrolls must be a tuple of factors or 'auto', "
                f"got {req.unrolls!r}"
            )
        if not req.unrolls:
            raise ValueError("unrolls must name at least one factor, got ()")
        grid = _AUTO_PROBES if req.unrolls == "auto" else req.unrolls
        todo += [(cell, unroll) for unroll in grid]

    baselines: list[JobOutcome] = []
    evaluated: list[dict[int, JobOutcome]] = [{} for _ in requests]
    # Each cell's outcomes by decomposition (every other spec field is
    # the cell's): a refinement rung whose program an earlier round ran
    # takes that outcome, and ``run_jobs`` merges a round's own repeats.
    programs: list[dict] = [{} for _ in requests]
    while todo:
        fresh = [
            (cell, unroll)
            for cell, unroll in todo
            if _decomposition(requests[cell], unroll) not in programs[cell]
        ]
        # Round 0 also runs every request's baseline, after its par specs.
        seq = [] if baselines else [_baseline_spec(req) for req in requests]
        outcomes = run_jobs(
            [_par_spec(requests[cell], unroll) for cell, unroll in fresh] + seq,
            jobs=jobs,
            cache=cache,
        )
        baselines = baselines or outcomes[len(fresh):]
        for (cell, unroll), outcome in zip(fresh, outcomes):
            programs[cell][_decomposition(requests[cell], unroll)] = outcome
        for cell, unroll in todo:
            evaluated[cell][unroll] = programs[cell][
                _decomposition(requests[cell], unroll)
            ]
        todo = [
            (cell, unroll)
            for cell, req in enumerate(requests)
            if req.unrolls == "auto"
            for unroll in _auto_frontier(
                evaluated[cell], baselines[cell].seq_cycles
            )
        ]

    return [
        _assemble(req, evaluated[cell], baselines[cell])
        for cell, req in enumerate(requests)
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
