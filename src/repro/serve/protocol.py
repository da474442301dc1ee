"""The line-delimited-JSON wire protocol of ``tflux-serve``.

One message per line, UTF-8 JSON, newline-terminated — readable with a
telnet session and parseable from any language.  The full message
catalogue (and the fairness/backpressure semantics behind it) is
documented in ``docs/serving.md``; the shapes in brief:

Client → server::

    {"type": "hello",  "tenant": "alice"}
    {"type": "submit", "batch_id": "b1", "priority": 0, "jobs": [JOB, ...]}
    {"type": "stats"}
    {"type": "bye"}

Server → client::

    {"type": "welcome",    "server": "tflux-serve", "wire": 1}
    {"type": "accepted",   "batch_id": "b1", "jobs": N}
    {"type": "overloaded", "batch_id": "b1", "queued": n, "limit": m}
    {"type": "result",     "batch_id": "b1", "index": i, "outcome": OUTCOME}
    {"type": "job_error",  "batch_id": "b1", "index": i, "error": [cls, msg]}
    {"type": "batch_done", "batch_id": "b1"}
    {"type": "stats",      "counters": {...}, ...}
    {"type": "error",      "message": "..."}

``JOB`` is a declarative job description (benchmark, platform, size
label, kernel count, unroll, ...) that the server turns into a
:class:`~repro.exec.pool.JobSpec` via the benchmark/platform registries
— a program object never crosses the wire, preserving the single-run
invariant exactly as the process pool does.  ``OUTCOME`` is the JSON
form of a :class:`~repro.exec.pool.JobOutcome` whose ``record`` is
``RunRecord.to_json_dict()`` — the schema-versioned telemetry payload,
bit-identical round-tripped, never program state.
"""

from __future__ import annotations

import json
from typing import Any

from repro.exec.pool import JobOutcome, JobSpec

__all__ = [
    "WIRE_VERSION",
    "WireError",
    "encode",
    "decode",
    "job_from_wire",
    "job_to_wire",
    "outcome_from_wire",
    "outcome_to_wire",
]

#: Bump on incompatible message-shape changes (advertised in ``welcome``).
WIRE_VERSION = 1

#: Upper bound on one message line (a large batch or a span-carrying
#: outcome is far below this; a runaway line is a protocol error).
MAX_LINE_BYTES = 16 * 1024 * 1024


class WireError(ValueError):
    """A message that cannot be decoded into a valid request."""


def encode(message: dict[str, Any]) -> bytes:
    """One protocol line: compact JSON + newline."""
    return json.dumps(message, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def decode(line: bytes) -> dict[str, Any]:
    """Parse one protocol line into a message dict."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WireError(f"bad JSON: {exc}") from None
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise WireError("message must be an object with a string 'type'")
    return message


# -- job descriptions ----------------------------------------------------------

_JOB_DEFAULTS = {
    "platform": "hard",
    "size": "small",
    "nkernels": 0,  # 0 = platform max
    "unroll": 1,
    "max_threads": 4096,
    "verify": False,
    "mode": "execute",
    "tsu_capacity": None,
    "exact_memory": False,
    "allow_stealing": False,
    "collect_spans": False,
    "capture_errors": False,
    "check": "",
    # dist-only extras
    "nodes": 2,
    "topology": "mesh",
    "cluster": 0,
}


def _build_platform(wire: dict[str, Any]):
    from repro.platforms import platform_from_name

    try:
        return platform_from_name(
            wire.get("platform", _JOB_DEFAULTS["platform"]),
            nodes=int(wire.get("nodes", _JOB_DEFAULTS["nodes"])),
            topology=wire.get("topology", _JOB_DEFAULTS["topology"]),
            cluster=int(wire.get("cluster", _JOB_DEFAULTS["cluster"])),
        )
    except (TypeError, ValueError) as exc:  # DirectoryCapacityError included
        raise WireError(str(exc)) from None


def job_from_wire(wire: dict[str, Any]) -> JobSpec:
    """Turn a declarative wire job into a picklable :class:`JobSpec`.

    Raises :class:`WireError` on any unknown benchmark/platform/size or
    malformed field — admission rejects the batch before anything runs.
    """
    import repro.apps  # benchmark registry

    if not isinstance(wire, dict):
        raise WireError("job must be an object")
    unknown = set(wire) - set(_JOB_DEFAULTS) - {"bench"}
    if unknown:
        raise WireError(f"unknown job fields: {sorted(unknown)}")
    bench = wire.get("bench")
    if bench not in repro.apps.BENCHMARKS:
        raise WireError(f"unknown benchmark {bench!r}")
    platform = _build_platform(wire)
    label = wire.get("size", _JOB_DEFAULTS["size"])
    sizes = repro.apps.problem_sizes(bench, platform.target)
    if label not in sizes:
        raise WireError(f"unknown size {label!r} (have {sorted(sizes)})")
    mode = wire.get("mode", "execute")
    if mode not in ("execute", "sequential"):
        raise WireError(f"unknown mode {mode!r}")
    check = wire.get("check", "")
    if check not in ("", "races"):
        raise WireError(f"unknown check {check!r} (expected '' or 'races')")
    tsu_capacity = wire.get("tsu_capacity")
    try:
        return JobSpec(
            platform=platform,
            bench=bench,
            size=sizes[label],
            nkernels=int(wire.get("nkernels", 0)) or platform.max_kernels,
            unroll=int(wire.get("unroll", 1)),
            max_threads=int(wire.get("max_threads", _JOB_DEFAULTS["max_threads"])),
            verify=bool(wire.get("verify", False)),
            mode=mode,
            tsu_capacity=None if tsu_capacity is None else int(tsu_capacity),
            exact_memory=bool(wire.get("exact_memory", False)),
            allow_stealing=bool(wire.get("allow_stealing", False)),
            collect_spans=bool(wire.get("collect_spans", False)),
            capture_errors=bool(wire.get("capture_errors", False)),
            check=check,
        )
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed job field: {exc}") from None


def job_to_wire(
    bench: str,
    *,
    platform: str = "hard",
    size: str = "small",
    nkernels: int = 0,
    unroll: int = 1,
    **extras: Any,
) -> dict[str, Any]:
    """Client-side helper: a wire job dict with defaults elided."""
    wire: dict[str, Any] = {"bench": bench}
    for key, value in dict(
        platform=platform, size=size, nkernels=nkernels, unroll=unroll, **extras
    ).items():
        if key not in _JOB_DEFAULTS:
            raise WireError(f"unknown job field {key!r}")
        if value != _JOB_DEFAULTS[key]:
            wire[key] = value
    return wire


# -- outcomes ------------------------------------------------------------------

def outcome_to_wire(outcome: JobOutcome) -> dict[str, Any]:
    """The JSON form of a :class:`JobOutcome` (timing only, env-free)."""
    return {
        "cycles": outcome.cycles,
        "region_cycles": outcome.region_cycles,
        "seq_cycles": outcome.seq_cycles,
        "error": list(outcome.error) if outcome.error else None,
        "record": outcome.result.to_json_dict() if outcome.result else None,
    }


def outcome_from_wire(wire: dict[str, Any]) -> JobOutcome:
    """Inverse of :func:`outcome_to_wire` — bit-identical round trip
    (pinned by the serve differential tests)."""
    from repro.obs import RunRecord

    record = wire.get("record")
    error = wire.get("error")
    return JobOutcome(
        cycles=wire["cycles"],
        region_cycles=wire["region_cycles"],
        seq_cycles=wire.get("seq_cycles"),
        result=RunRecord.from_json_dict(record) if record else None,
        error=tuple(error) if error else None,
    )
