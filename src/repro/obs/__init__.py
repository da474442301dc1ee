"""repro.obs — the unified run-telemetry layer.

The paper's evaluation (§5–§6) is per-run accounting: kernel utilisation,
TSU traffic, TUB retries, DMA volume.  This package is the one spine all
of that flows through, on every backend:

* :mod:`repro.obs.counters` — the typed, namespaced, mergeable integer
  counter registry that the TSU Group, every protocol adapter, the TUB,
  and both runtimes publish into (``publish_counters(counters)``);
* :mod:`repro.obs.probe` — the probe/span protocol: simulated, native and
  sequential executions all emit per-DThread spans through one
  :class:`Probe` interface, with Chrome-trace and JSONL exporters and the
  in-memory collecting :class:`Tracer`;
* :mod:`repro.obs.record` — the schema-versioned, picklable
  :class:`RunRecord` (counters + spans + per-kernel/core/cache stats, no
  ``Environment``) that crosses the :mod:`repro.exec` pool/cache boundary
  and feeds the analysis layer.

See "Observability" in ``docs/simulation.md`` for the paper-quantity →
field map and a Perfetto how-to.
"""

from repro.obs.counters import Counters, CounterScope
from repro.obs.probe import (
    NULL_PROBE,
    Probe,
    Span,
    Tracer,
    check_no_overlap,
    render_gantt,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.record import (
    SCHEMA_VERSION,
    KernelAccount,
    KernelStats,
    RunRecord,
    record_schema,
    verify_schema_fixture,
)

__all__ = [
    "Counters",
    "CounterScope",
    "NULL_PROBE",
    "Probe",
    "Span",
    "Tracer",
    "check_no_overlap",
    "render_gantt",
    "to_chrome_trace",
    "write_chrome_trace",
    "SCHEMA_VERSION",
    "KernelAccount",
    "KernelStats",
    "RunRecord",
    "record_schema",
    "verify_schema_fixture",
]
