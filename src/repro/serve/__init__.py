"""repro.serve — simulation-as-a-service on top of :mod:`repro.exec`.

The serving tier ``docs/serving.md`` describes: a
long-running stdlib-``asyncio`` server that accepts batches of job
specs from many tenants over a line-delimited-JSON socket protocol and
streams schema-versioned results back as each cell finishes.  The
performance core is three layers above the process pool:

* **single-flight dedup** (:mod:`repro.exec.singleflight`, the class
  :func:`~repro.exec.run_job`'s recorded-baseline memo also uses) —
  identical in-flight jobs coalesce onto one running simulation, with a
  bounded in-memory LRU of recent outcomes above the on-disk
  :class:`~repro.exec.cache.ResultCache`;
* **fair scheduling** (:mod:`repro.serve.scheduler`) — per-tenant
  round-robin with priority aging, deterministic and wall-clock-free;
* **admission control** (:mod:`repro.serve.server`) — bounded queues, a
  max-in-flight bound on unique simulations, and explicit ``overloaded``
  replies instead of unbounded buffering, all on one persistent
  ``ProcessPoolExecutor``.

See ``docs/serving.md`` for the protocol, the fairness/backpressure
semantics, and the ``tflux-serve`` sizing flags; the ``serve_mix``
workload of ``perf/`` records sustained cold and hot jobs/sec, and
``tests/test_serve_server.py`` pins the single-flight invariant under 2
and 16 racing clients.
"""

from repro.serve.client import BatchResult, ServeClient
from repro.serve.protocol import (
    WIRE_VERSION,
    WireError,
    job_from_wire,
    job_to_wire,
    outcome_from_wire,
    outcome_to_wire,
)
from repro.serve.scheduler import FairScheduler
from repro.serve.server import (
    ServeConfig,
    ServerHandle,
    TFluxServer,
    serve_in_thread,
)

__all__ = [
    "BatchResult",
    "ServeClient",
    "WIRE_VERSION",
    "WireError",
    "job_from_wire",
    "job_to_wire",
    "outcome_from_wire",
    "outcome_to_wire",
    "FairScheduler",
    "ServeConfig",
    "ServerHandle",
    "TFluxServer",
    "serve_in_thread",
]
