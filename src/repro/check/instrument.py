"""Program instrumentation: swap DThread bodies for recording wrappers.

:func:`instrument` rewrites every template body of a program in place
(until :meth:`CheckSession.close` puts them back) so that, on any
backend, the body executes against a
:class:`~repro.check.recording.CheckedEnvironment` while the rest of the
machinery (cost models, access summaries, schedulers) sees the program
unchanged.  The wrapper:

* attributes recorded ops to the current instance via **thread-local**
  state — the native backend runs bodies concurrently on OS threads, so
  a global "current instance" would misattribute;
* evaluates the declared ``accesses(env, ctx)`` summary against the
  *raw* environment right after the body returns — the same values, in
  the same order, the simulated driver evaluates them, so instrumented
  runs stay cycle-identical (the functional/timing split is preserved
  by construction: nothing on the timing path is wrapped);
* intercepts :class:`~repro.core.dynamic.Subflow` outcomes, recursively
  instrumenting the spawned templates and remembering which instance
  spawned which epoch (the spawn edges of the happens-before order).

Sequential prologue/epilogue sections run unrecorded: they execute
before/after the dataflow region and cannot race with anything.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.check.checker import CheckReport, InstanceRecord, analyze
from repro.check.recording import AccessSink, CheckedEnvironment
from repro.core.deps import check_deps
from repro.core.dynamic import Subflow
from repro.core.dthread import DThreadTemplate
from repro.core.graph import SynchronizationGraph
from repro.core.program import DDMProgram

__all__ = ["CheckSession", "audit", "instrument", "run_checked"]


class CheckSession(AccessSink):
    """Recording state for one instrumented program execution.

    Create via :func:`instrument`, execute the program once on any
    backend, then call :meth:`report`.
    """

    def __init__(self, program: DDMProgram) -> None:
        self.program = program
        self._records: List[InstanceRecord] = []
        #: Every recorded interval, ``(rid, region, is_write, lo, hi)``:
        #: plain ints appended as the bodies run (one append is atomic,
        #: so concurrent bodies interleave rows, never tear them).
        self._rows: List[Tuple[int, str, bool, int, int]] = []
        self._spawns: List[Tuple[Subflow, InstanceRecord]] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: Every wrapped template with the body it had, for :meth:`close`.
        self._originals: List[Tuple[DThreadTemplate, Callable]] = []
        self._checked_env = CheckedEnvironment(program.env, self)
        self._instrument_graph(program.graph)

    # -- AccessSink -----------------------------------------------------------
    def record_span(self, region: str, lo: int, hi: int, is_write: bool) -> None:
        rec = getattr(self._tls, "rec", None)
        if rec is not None:
            rec.ops += 1
            self._rows.append((rec.rid, region, is_write, lo, hi))

    def record(self, region: str, intervals: np.ndarray, is_write: bool) -> None:
        rec = getattr(self._tls, "rec", None)
        if rec is not None:
            rec.ops += 1
            rid = rec.rid
            self._rows.extend(
                (rid, region, is_write, lo, hi) for lo, hi in intervals.tolist()
            )

    # -- instrumentation ------------------------------------------------------
    def _instrument_graph(self, graph: SynchronizationGraph) -> None:
        for tmpl in graph.templates:
            self._wrap_template(tmpl)

    def _wrap_template(self, tmpl: DThreadTemplate) -> None:
        orig = tmpl.body
        if orig is None or getattr(orig, "_check_wrapped", False):
            return
        session = self

        def body(env, ctx, _orig=orig, _tmpl=tmpl):
            with session._lock:
                rec = InstanceRecord(_tmpl, ctx, len(session._records))
                session._records.append(rec)
            prev = getattr(session._tls, "rec", None)
            session._tls.rec = rec
            try:
                out = _orig(session._checked_env, ctx)
            finally:
                session._tls.rec = prev
            # Declared summary, evaluated on the raw env right after the
            # body — the order the simulated driver uses.
            if _tmpl.accesses is not None:
                rec.declared = _tmpl.accesses(env, ctx)
            if isinstance(out, Subflow):
                with session._lock:
                    session._spawns.append((out, rec))
                session._instrument_graph(out.graph)
            return out

        body._check_wrapped = True
        tmpl.body = body
        self._originals.append((tmpl, orig))

    def close(self) -> None:
        """Give every wrapped template its own body back and drop the
        checked environment.  Each wrapper and the checked environment
        point back at the session, so until then the program and the
        session hold each other in reference cycles.  What was recorded
        stays: :meth:`report` still works."""
        for tmpl, orig in self._originals:
            tmpl.body = orig
        self._originals.clear()
        self._checked_env = None

    # -- analysis -------------------------------------------------------------
    def report(self) -> CheckReport:
        """Analyse everything recorded so far."""
        epochs: List[Tuple[object, Optional[InstanceRecord]]] = [
            (self.program.expanded(), None)
        ]
        with self._lock:
            spawns = list(self._spawns)
            records = list(self._records)
        for sf, rec in spawns:
            epochs.append((sf.expand(), rec))
        return analyze(self.program.env, epochs, records, list(self._rows))


def instrument(program: DDMProgram) -> CheckSession:
    """Instrument *program* in place for access recording.

    Returns the session; run the program once (any backend — its cycle
    counts are unchanged), then call :meth:`CheckSession.report`.
    """
    return CheckSession(program)


def run_checked(program: DDMProgram) -> CheckReport:
    """Instrument, run the functional oracle, and analyse.

    The standard frontend path (``tflux-run --check-races``): one
    sequential functional execution, no timing simulation.  The program
    leaves with its own bodies back (:meth:`CheckSession.close`).
    """
    session = instrument(program)
    try:
        program.run_sequential()
    finally:
        session.close()
    return session.report()


def audit(
    build: Callable[[], DDMProgram], label: str, deps: bool, races: bool
) -> int:
    """The ``--check-deps`` / ``--check-races`` frontend of both CLIs.

    The two audits compose: static graph diagnosis
    (:func:`~repro.core.deps.check_deps`), then one recorded functional
    run (:func:`run_checked`) — each on a fresh ``build()``, since
    programs are single-run objects.  Prints *label* and the report per
    audit; the exit status is the worst of them (0 clean, 1 findings).
    """
    status = 0
    for wanted, check in ((deps, check_deps), (races, run_checked)):
        if wanted:
            report = check(build())
            print(f"{label}:")
            print(report.format())
            status = max(status, 0 if report.ok else 1)
    return status
