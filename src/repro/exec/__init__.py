"""Harness execution subsystem: parallel sweeps + persistent result cache.

The paper's figures are grids of independent simulations; this package
makes the harness's own wall-clock scale with the host machine:

* :mod:`repro.exec.pool` — picklable job specs, a process-pool sweep
  executor (``TFLUX_JOBS``), and the batched §5 evaluation protocol;
* :mod:`repro.exec.cache` — a content-addressed on-disk result cache
  (``TFLUX_CACHE_DIR``) keyed on job spec + cost-model parameters +
  a fingerprint of the simulator sources;
* :mod:`repro.exec.singleflight` — the one single-flight + bounded-LRU
  primitive, shared by ``run_job``'s recorded-baseline memo and the
  :mod:`repro.serve` job frontier.

See ``docs/simulation.md`` ("Running the harness fast") for usage.
"""

from repro.exec.cache import (
    ENV_CACHE_DIR,
    ResultCache,
    cache_from_env,
    describe,
    source_fingerprint,
    spec_digest,
)
from repro.exec.pool import (
    ENV_JOBS,
    UNROLL_LADDER,
    EvalRequest,
    JobOutcome,
    JobSpec,
    clear_baseline_memo,
    evaluate_many,
    job_count,
    pool_context,
    run_job,
    run_jobs,
)
from repro.exec.singleflight import SingleFlightLRU

__all__ = [
    "ENV_CACHE_DIR",
    "ENV_JOBS",
    "UNROLL_LADDER",
    "ResultCache",
    "SingleFlightLRU",
    "cache_from_env",
    "describe",
    "source_fingerprint",
    "spec_digest",
    "EvalRequest",
    "JobOutcome",
    "JobSpec",
    "clear_baseline_memo",
    "evaluate_many",
    "job_count",
    "pool_context",
    "run_job",
    "run_jobs",
]
