"""Run statistics and results shared by all runtime backends.

:class:`RunResult` is the *live* outcome of one execution: the run's
:class:`~repro.obs.RunRecord` — identity, cycle/wall totals, per-kernel
stats, the :class:`~repro.obs.Counters` registry every component
publishes into and the span list an attached probe collected — plus the
program's mutated :class:`~repro.core.environment.Environment`, so the
caller can verify functional output.  :meth:`RunResult.to_record` drops
the environment, leaving the plain picklable record that crosses process
and cache boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.environment import Environment
from repro.obs import KernelStats, RunRecord

__all__ = ["KernelStats", "RunResult"]

_RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))


@dataclass
class RunResult(RunRecord):
    """Outcome of one program execution on one platform: every
    :class:`~repro.obs.RunRecord` field and derived quantity, plus the
    live ``env``."""

    env: Environment = field(kw_only=True)

    def to_record(self) -> RunRecord:
        """The env-free, schema-versioned telemetry payload of this run
        (a plain :class:`~repro.obs.RunRecord`, never ``self``)."""
        return RunRecord(**{name: getattr(self, name) for name in _RECORD_FIELDS})
