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
invariant exactly as the process pool does.  Its field table is derived
from the dataclass (:data:`_JOB_DEFAULTS`), and what makes a job legal
is decided by ``JobSpec.__post_init__`` — this module types neither a
second time.  ``OUTCOME`` is the JSON
form of a :class:`~repro.exec.pool.JobOutcome` whose ``record`` is
``RunRecord.to_json_dict()`` — the schema-versioned telemetry payload,
bit-identical round-tripped, never program state.
"""

from __future__ import annotations

import dataclasses
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
    "result_line",
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


def result_line(batch_id: str, index: int, outcome_line: bytes) -> bytes:
    """The ``result`` line for an outcome that is already encoded.

    *outcome_line* is ``encode(outcome_to_wire(outcome))``; the result is
    byte-identical to ``encode({"type": "result", "batch_id": batch_id,
    "index": index, "outcome": outcome_to_wire(outcome)})`` because
    :func:`encode` sorts keys at every level and ``batch_id < index <
    outcome < type`` — so a server encodes an outcome once and splices
    the two per-delivery fields around it.
    """
    return b'{"batch_id":%s,"index":%d,"outcome":%s,"type":"result"}\n' % (
        json.dumps(batch_id).encode(), index, outcome_line[:-1],
    )


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

#: Every wire field of a job and its default.  Six fields are *named*:
#: the server resolves them through the platform and size registries
#: (``nodes``/``topology``/``cluster`` shape ``dist`` only), and the wire
#: defaults ``unroll``.  Every other :class:`JobSpec` field with a
#: default is a wire field of the same name, default and type — a new
#: run option is a new ``JobSpec`` field and nothing here.
_JOB_DEFAULTS = {
    "platform": "hard",
    "size": "small",
    "nkernels": 0,  # 0 = platform max
    "unroll": 1,
    "nodes": 2,
    "topology": "mesh",
    "cluster": 0,
    **{
        f.name: f.default
        for f in dataclasses.fields(JobSpec)
        if f.default is not dataclasses.MISSING
    },
}


def _coerce(value: Any, default: Any) -> Any:
    """A wire value as the type of its field's default (a ``None``
    default is an optional int)."""
    if default is None:
        return None if value is None else int(value)
    return type(default)(value)


def job_from_wire(wire: dict[str, Any]) -> JobSpec:
    """Turn a declarative wire job into a picklable :class:`JobSpec`.

    Raises :class:`WireError` for an unknown benchmark/platform/size, a
    malformed field, a value :class:`JobSpec` refuses (unknown mode,
    a count below 1) or more kernels than the platform has —
    admission rejects the batch before anything runs.
    """
    import repro.apps  # benchmark registry
    from repro.platforms import platform_from_name

    if not isinstance(wire, dict):
        raise WireError("job must be an object")
    unknown = set(wire) - set(_JOB_DEFAULTS) - {"bench"}
    if unknown:
        raise WireError(f"unknown job fields: {sorted(unknown)}")
    bench = wire.get("bench")
    if bench not in repro.apps.BENCHMARKS:
        raise WireError(f"unknown benchmark {bench!r}")
    try:
        fields = dict(_JOB_DEFAULTS)
        for name in wire.keys() - {"bench"}:
            fields[name] = _coerce(wire[name], fields[name])
        platform = platform_from_name(
            fields.pop("platform"),
            nodes=fields.pop("nodes"),
            topology=fields.pop("topology"),
            cluster=fields.pop("cluster"),
        )  # DirectoryCapacityError is a ValueError
        sizes = repro.apps.problem_sizes(bench, platform.target)
        label = fields.pop("size")
        if label not in sizes:
            raise WireError(f"unknown size {label!r} (have {sorted(sizes)})")
        nkernels = fields.pop("nkernels") or platform.max_kernels
        if nkernels > platform.max_kernels:
            raise WireError(
                f"{platform.name} offers at most {platform.max_kernels} "
                f"kernels ({nkernels} requested)"
            )
        return JobSpec(
            platform=platform, bench=bench, size=sizes[label],
            nkernels=nkernels, **fields,
        )
    except (TypeError, ValueError) as exc:
        raise WireError(str(exc)) from None


def job_to_wire(bench: str, **fields: Any) -> dict[str, Any]:
    """Client-side helper: a wire job dict with defaults elided."""
    wire: dict[str, Any] = {"bench": bench}
    for key, value in fields.items():
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
