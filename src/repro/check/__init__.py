"""Dynamic DDM race detection (the dynamic half of dependence checking).

PR 8's :func:`repro.core.deps.check_deps` judges *declared* access
summaries statically; this package verifies the declarations themselves
and the ordering of what bodies *actually* touch:

* :mod:`repro.check.recording` — instrumented Environment/array views
  logging exact byte-interval footprints per DThread instance;
* :mod:`repro.check.checker` — happens-before (vector-clock) analysis
  over the executed graph epochs: undeclared accesses and true races;
* :mod:`repro.check.instrument` — in-place program instrumentation that
  works on every backend without perturbing cycle counts.

Frontends: ``tflux-run --check-races`` and ``ddmcpp --check-races``.
"""

from repro.check.checker import (
    CheckReport,
    Finding,
    InstanceRecord,
    analyze,
)
from repro.check.instrument import CheckSession, audit, instrument, run_checked
from repro.check.recording import CheckedEnvironment, RecordingArray

__all__ = [
    "CheckReport",
    "Finding",
    "InstanceRecord",
    "analyze",
    "CheckSession",
    "audit",
    "instrument",
    "run_checked",
    "CheckedEnvironment",
    "RecordingArray",
]
