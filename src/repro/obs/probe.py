"""The probe/span protocol: one instrumentation interface for every backend.

A :class:`Probe` is the shared span-emission interface.  The simulated
runtime driver, the native (OS-thread) backend, and the sequential
baselines all emit a span for every scheduled unit they execute: the
Kernel loop hands :meth:`Probe.record_instance` the DThread instance
itself, the baseline hands :meth:`Probe.record` a recorded name; what
happens to the span is the probe's business.  The base class discards
everything (so instrumentation is always *emitted* and only *collected*
on demand), and never formats an instance's name; :class:`Tracer`
collects spans in memory and offers the timeline queries the analysis
layer and the examples use.

Time units are backend-defined: simulated backends record **cycles**,
the native backend records **microseconds** of wall time.  Both are
integers on one monotonically increasing axis per run, which is all the
invariants (no per-kernel overlap) and the exporters need.

Exporter: :func:`to_chrome_trace` / :func:`write_chrome_trace` produce
the Chrome ``chrome://tracing`` / Perfetto JSON format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Union

__all__ = [
    "Span",
    "Probe",
    "NULL_PROBE",
    "Tracer",
    "render_gantt",
    "to_chrome_trace",
    "write_chrome_trace",
]


@dataclass(frozen=True)
class Span:
    """One scheduled unit on one kernel."""

    kernel: int
    name: str
    kind: str  # "thread" | "inlet" | "outlet" | "section"
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


class Probe:
    """The span-emission interface; the base class is a no-op sink.

    Runtimes hold exactly one probe (:data:`NULL_PROBE` by default) and
    emit unconditionally — attaching a collecting probe is a caller
    decision, never a runtime code path.  A collecting probe overrides
    both methods.
    """

    def record(
        self, kernel: int, name: str, kind: str, start: float, end: float
    ) -> None:
        """Emit one span.  *start*/*end* are truncated to int by sinks."""

    def record_instance(
        self, kernel: int, inst, kind: str, start: float, end: float
    ) -> None:
        """Emit one span for DThread instance *inst*, named ``inst.name``;
        only a collecting probe reads (and so formats) the name."""

    @property
    def spans(self) -> list[Span]:
        """Collected spans (always empty for non-collecting probes)."""
        return []


#: The default sink: spans are emitted and discarded.
NULL_PROBE = Probe()


class Tracer(Probe):
    """A collecting probe: records every span and answers timeline queries."""

    def __init__(self) -> None:
        self._spans: list[Span] = []

    def record(
        self, kernel: int, name: str, kind: str, start: float, end: float
    ) -> None:
        self._spans.append(Span(kernel, name, kind, int(start), int(end)))

    def record_instance(
        self, kernel: int, inst, kind: str, start: float, end: float
    ) -> None:
        self._spans.append(Span(kernel, inst.name, kind, int(start), int(end)))

    @property
    def spans(self) -> list[Span]:
        return self._spans

    # -- queries ------------------------------------------------------------
    def spans_of(self, kernel: int) -> list[Span]:
        return [s for s in self._spans if s.kernel == kernel]

    def busy_cycles(self, kernel: int) -> int:
        return sum(s.duration for s in self.spans_of(kernel))

    def makespan(self) -> int:
        if not self._spans:
            return 0
        return max(s.end for s in self._spans) - min(s.start for s in self._spans)

    def critical_kernel(self) -> Optional[int]:
        kernels = {s.kernel for s in self._spans}
        if not kernels:
            return None
        return max(kernels, key=self.busy_cycles)

    def check_no_overlap(self) -> None:
        """A kernel executes one DThread at a time — spans must not
        overlap within a kernel (a key runtime invariant)."""
        check_no_overlap(self._spans)


def check_no_overlap(spans: Iterable[Span]) -> None:
    """Assert per-kernel span disjointness for any span collection."""
    spans = list(spans)
    for kernel in {s.kernel for s in spans}:
        own = sorted((s for s in spans if s.kernel == kernel), key=lambda s: s.start)
        for a, b in zip(own, own[1:]):
            assert a.end <= b.start, (
                f"kernel {kernel}: {a.name} [{a.start},{a.end}) overlaps "
                f"{b.name} [{b.start},{b.end})"
            )


SpanSource = Union[Probe, Iterable[Span]]


def _spans_of(source: SpanSource) -> list[Span]:
    return list(source.spans if isinstance(source, Probe) else source)


# -- Chrome trace export -------------------------------------------------------
def to_chrome_trace(source: SpanSource) -> dict:
    """Export spans in the Chrome ``chrome://tracing`` / Perfetto JSON
    format: one track per kernel, complete ('X') events, microsecond
    timestamps mapped 1:1 from the backend's time unit."""
    spans = _spans_of(source)
    events = [
        {
            "name": s.name,
            "cat": s.kind,
            "ph": "X",
            "ts": s.start,
            "dur": s.duration,
            "pid": 0,
            "tid": s.kernel,
        }
        for s in sorted(spans, key=lambda s: (s.kernel, s.start))
    ]
    events.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": k,
            "args": {"name": f"kernel{k}"},
        }
        for k in sorted({s.kernel for s in spans})
    )
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(path, source: SpanSource) -> None:
    """Write the Chrome-trace JSON for *source* to *path*."""
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(source), fh)


# -- ASCII rendering ----------------------------------------------------------
def render_gantt(source: SpanSource, width: int = 72) -> str:
    """ASCII Gantt chart: one row per kernel, time left to right.

    Thread spans print as ``#``, inlets as ``I``, outlets as ``O``; idle
    gaps as ``.``.
    """
    spans = _spans_of(source)
    if not spans:
        return "(no spans recorded)"
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    span_range = max(t1 - t0, 1)
    scale = width / span_range
    kernels = sorted({s.kernel for s in spans})
    lines = [f"time: {t0:,} .. {t1:,} cycles ({span_range:,} total)"]
    glyph = {"thread": "#", "inlet": "I", "outlet": "O"}
    for k in kernels:
        own = [s for s in spans if s.kernel == k]
        row = ["."] * width
        for s in own:
            lo = int((s.start - t0) * scale)
            hi = max(int((s.end - t0) * scale), lo + 1)
            for x in range(lo, min(hi, width)):
                row[x] = glyph.get(s.kind, "#")
        busy = sum(s.duration for s in own) / span_range
        lines.append(f"k{k:<3}|{''.join(row)}| {busy:5.1%}")
    return "\n".join(lines)
