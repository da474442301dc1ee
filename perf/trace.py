"""In-memory measurement sinks for the benchmark's own call boundaries.

:class:`Tracer` keeps spans; :class:`Recorder` keeps what one repetition
of a workload produced (op timings, failures, exact counts) and hands it
to ``perf/run.py`` as a :class:`RepRecord`.

Spans are recorded from ``perf/`` around the public ``repro`` calls named
in ``perf/README.md`` (spans *inside* ``repro`` are a later issue).  A
span is ``name, start, end, parent, op``: every span opened while an op
is active carries that op's id, and its parent is the span that was open
on the same thread when it started.  Nothing is written until the
workload ends (:meth:`Tracer.write_chrome`).

With ``enabled=False`` :meth:`Tracer.span` is a no-op context, so the
untraced run pays for op timing only.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

import numpy as np

__all__ = [
    "Span", "Tracer", "Op", "RepRecord", "Recorder",
    "empty_span_seconds", "host_speed_sample",
]

_SPIN_ARRAY = np.arange(50_000, dtype=float)


def host_speed_sample() -> float:
    """Seconds a fixed ~2 ms mix of interpreter, allocator and numpy work
    takes right now.

    The sandbox's vCPUs switch, for tens of seconds at a time, between a
    fast and a ~1.35x slower state (a busy neighbour), and this kernel
    slows by the same factor as the workloads do.  Sampled between ops, it
    is what ``perf/run.py`` divides host times by; nothing in ``repro``
    can change it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    table = {}
    for i in range(3_000):
        table[i] = (i, str(i))
    for _ in range(5):
        (_SPIN_ARRAY * _SPIN_ARRAY + _SPIN_ARRAY).sum()
    return time.perf_counter() - start


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  #: index into ``Tracer.spans``
    op: str
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one open-span stack per thread."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: str) -> None:
        """Tag spans opened on this thread from now on with *op*."""
        self._local.op = op

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span = Span(
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1] if stack else None,
            op=getattr(self._local, "op", ""),
            thread=threading.get_ident(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # -- aggregation -----------------------------------------------------------
    def totals(self, since: int = 0, until: Optional[int] = None) -> dict[str, float]:
        """Σ seconds per span name over ``spans[since:until]``.  The layer
        spans are leaves, so a layer's total is also its self time."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans[since:until]:
            out[span.name] += span.seconds
        return dict(out)

    # -- export ----------------------------------------------------------------
    def write_chrome(self, path: str) -> None:
        """Chrome-trace JSON (``chrome://tracing`` / Perfetto): one
        complete event per span, threads as rows, op id and parent span
        in ``args``."""
        origin = min((span.start for span in self.spans), default=0.0)
        rows = {tid: row for row, tid in enumerate(
            sorted({span.thread for span in self.spans})
        )}
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": 0,
                "tid": rows[span.thread],
                "args": {
                    "op": span.op,
                    "parent": (
                        None if span.parent is None
                        else self.spans[span.parent].name
                    ),
                },
            }
            for span in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def empty_span_seconds(n: int = 5000) -> float:
    """What recording one span costs, measured on a scratch tracer."""
    tracer = Tracer(enabled=True)
    start = time.perf_counter()
    for _ in range(n):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - start) / n


@dataclass
class Op:
    """Handle the workload fills in while one op runs."""

    #: Deterministic results of the op (cycles, finding counts, ...).  It
    #: must equal the first fingerprint recorded for the same op id, in
    #: this run's warm-up: a difference is a failed op.
    fingerprint: Any = None
    #: Seconds spent inside :meth:`Recorder.peel` (traced-only extras).
    peel_seconds: float = 0.0


@dataclass
class RepRecord:
    """Everything one repetition produced."""

    wall_s: float = 0.0
    #: op id -> (seconds, seconds of that spent in traced-only peels)
    ops: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: the sequential parts a repetition's wall-clock is the sum of: each
    #: op, unless ops overlap (client threads), then each phase
    parts: dict[str, float] = field(default_factory=dict)
    #: exact counts, summed over the repetition (traced repetitions only)
    counts: dict[str, float] = field(default_factory=dict)
    #: named per-repetition values (phase seconds, model error, ...)
    notes: dict[str, float] = field(default_factory=dict)
    #: :func:`host_speed_sample` readings taken between the ops
    speed_samples: list[float] = field(default_factory=list)
    #: the repetition's spans are ``Tracer.spans[first_span:last_span]``
    first_span: int = 0
    last_span: int = 0


class Recorder:
    """Sink for one run of one workload (safe to call from client threads)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fingerprints: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._rep = RepRecord()

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    # -- repetitions -----------------------------------------------------------
    def begin_rep(self) -> None:
        self._rep = RepRecord(first_span=len(self.tracer.spans))
        self._rep.wall_s = -time.perf_counter()

    def end_rep(self) -> RepRecord:
        self._rep.wall_s += time.perf_counter()
        self._rep.last_span = len(self.tracer.spans)
        return self._rep

    # -- ops -------------------------------------------------------------------
    @contextmanager
    def op(self, op_id: str, latency: bool = True, part: bool = True) -> Iterator[Op]:
        """Time one op; an exception or a changed fingerprint fails it.

        ``latency=False`` keeps a bookkeeping check out of the latency
        samples; ``part=False`` marks an op that overlaps others (client
        threads), whose time reaches the wall-clock through :meth:`part`
        instead and whose thread must not sample the host speed."""
        op = Op()
        self._local.op = op
        self.tracer.set_op(op_id)
        error: Optional[str] = None
        start = time.perf_counter()
        try:
            with self.tracer.span("op"):
                yield op
        except Exception as exc:  # the op failed; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        self._local.op = None
        self.tracer.set_op("")
        with self._lock:
            self.attempted += 1
            if latency:
                self._rep.ops[op_id] = (seconds, op.peel_seconds)
                if part:
                    self._rep.parts[op_id] = seconds - op.peel_seconds
            if error is None and op.fingerprint is not None:
                first = self.fingerprints.setdefault(op_id, op.fingerprint)
                if first != op.fingerprint:
                    error = f"result changed: {first!r} -> {op.fingerprint!r}"
            if error is not None:
                self.failed += 1
                self.failures.append(f"{op_id}: {error}")
        if latency and part:
            self.sample_host_speed()

    def sample_host_speed(self, n: int = 2) -> None:
        """Call from the one thread that is running, between ops."""
        samples = [host_speed_sample() for _ in range(n)]
        with self._lock:
            self._rep.speed_samples.extend(samples)

    def span(self, name: str):
        return self.tracer.span(name)

    @contextmanager
    def peel(self) -> Iterator[None]:
        """Work only the traced run does (a layer measured on its own on
        a fresh build); its time is kept apart from the op's shared calls."""
        start = time.perf_counter()
        try:
            yield
        finally:
            op = getattr(self._local, "op", None)
            if op is not None:
                op.peel_seconds += time.perf_counter() - start

    def part(self, name: str, seconds: float) -> None:
        with self._lock:
            self._rep.parts[name] = seconds

    # -- counts and notes --------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self._rep.counts[name] = self._rep.counts.get(name, 0) + n

    def note(self, name: str, value: float) -> None:
        with self._lock:
            self._rep.notes[name] = value
