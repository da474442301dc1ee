"""Blocking client for ``tflux-serve`` (sockets + NDJSON, no asyncio).

The client side of the protocol is deliberately plain: a socket, a
buffered reader, one JSON object per line.  :class:`ServeClient` drives
one connection — multiple concurrent tenants are multiple clients
(threads or processes), which is exactly how the throughput benchmark
and the CI smoke use it.

Results stream: ``submit`` invokes ``on_result`` the moment each cell's
``result`` message arrives (completion order), then returns the batch
reassembled in submission order.

A hit costs the client what it costs the server: an outcome is decoded
once per connection.  A ``result`` line in the layout the server prints
is split around its outcome's bytes
(:func:`repro.serve.protocol.split_result_line`) and those bytes are
looked up in the connection's bounded memo (:attr:`ServeClient.decode_outcome`),
which parses them and builds the :class:`JobOutcome` the first time only
— so batches share their wire dicts and outcomes, which are read-only
values.  Any other line is decoded in full, as every line once was.
"""

from __future__ import annotations

import itertools
import socket
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Optional

from repro.exec.pool import JobOutcome
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    WireError,
    decode,
    encode,
    loads,
    outcome_from_wire,
    split_result_line,
)

__all__ = ["BatchResult", "ServeClient"]

#: Seconds a client waits on the socket for the server's next line.
SOCKET_TIMEOUT = 300.0

#: Distinct outcomes a connection keeps decoded: as many as the result
#: LRU of a default server holds.
OUTCOME_MEMO = 512


def _decode_outcome(outcome_line: bytes) -> tuple[dict[str, Any], JobOutcome]:
    """The wire dict and :class:`JobOutcome` an outcome's bytes stand for."""
    wire = loads(outcome_line)
    return wire, outcome_from_wire(wire)


@dataclass
class BatchResult:
    """What one submit produced.

    ``status`` is ``"done"`` (every job resolved), ``"overloaded"``
    (admission refused the whole batch — nothing ran) or ``"error"``
    (the batch was malformed).  ``outcomes`` is in submission order;
    a job that failed server-side leaves ``None`` there and a
    ``(fully-qualified exception, message)`` tuple in ``errors``.
    ``wire`` keeps the raw outcome JSON by index for bit-identical
    comparisons across clients.  Both hold values the connection shares
    between batches: read them, never change them.
    """

    batch_id: str
    status: str
    outcomes: list[Optional[JobOutcome]] = field(default_factory=list)
    errors: dict[int, tuple[str, str]] = field(default_factory=dict)
    wire: dict[int, dict[str, Any]] = field(default_factory=dict)
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "done" and not self.errors


class ServeClient:
    """One tenant's connection to a running ``tflux-serve``."""

    def __init__(
        self,
        address: "tuple[str, int] | str",
        tenant: str = "",
    ) -> None:
        if isinstance(address, str):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            self._sock = socket.create_connection(address)
        self._file = self._sock.makefile("rwb")
        try:
            if isinstance(address, str):
                self._sock.connect(address)
            self._sock.settimeout(SOCKET_TIMEOUT)
            self.welcome = self._read()
            if self.welcome.get("type") != "welcome":
                raise ConnectionError(f"unexpected greeting: {self.welcome!r}")
            self.tenant = tenant
            if tenant:
                self._write({"type": "hello", "tenant": tenant})
        except BaseException:
            self._file.close()
            self._sock.close()
            raise
        #: Batch ids need only be unique on this connection: the server
        #: echoes them and ``submit`` skips a stale one.
        self._batches = itertools.count(1)
        #: outcome bytes -> ``(wire dict, JobOutcome)``, one decode per
        #: distinct outcome on this connection; ``cache_info().misses``
        #: counts the decodes.
        self.decode_outcome = lru_cache(maxsize=OUTCOME_MEMO)(_decode_outcome)

    # -- protocol I/O ---------------------------------------------------------
    def _write(self, message: dict[str, Any]) -> None:
        self._file.write(encode(message))
        self._file.flush()

    def _readline(self) -> bytes:
        """The next line, bounded as the server bounds one."""
        line = self._file.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        if not line.endswith(b"\n"):
            raise WireError(f"line cut short or longer than {MAX_LINE_BYTES} bytes")
        return line

    def _read(self) -> dict[str, Any]:
        """The next message."""
        return decode(self._readline())

    # -- API ------------------------------------------------------------------
    def submit(
        self,
        jobs: list[dict[str, Any]],
        priority: int = 0,
        on_result: Optional[Callable[[int, JobOutcome], None]] = None,
    ) -> BatchResult:
        """Submit one batch and stream its results until ``batch_done``.

        *jobs* are wire job dicts (see :func:`repro.serve.protocol.job_to_wire`).
        Blocks until the batch fully resolves (or is refused); every
        intermediate ``result`` fires ``on_result(index, outcome)`` as
        it arrives, which is how callers observe the incremental stream.
        """
        batch_id = f"{next(self._batches):012x}"
        self._write(
            {"type": "submit", "batch_id": batch_id, "jobs": jobs,
             "priority": priority}
        )
        result = BatchResult(batch_id=batch_id, status="pending")
        result.outcomes = [None] * len(jobs)
        while True:
            line = self._readline()
            split = split_result_line(line)
            if split is not None:
                line_batch, index, outcome_line = split
                if line_batch != batch_id:
                    continue  # stale stream from a previous batch
                wire, outcome = self.decode_outcome(outcome_line)
            else:
                message = decode(line)
                if message.get("batch_id") not in (None, batch_id):
                    continue  # stale stream from a previous batch
                mtype = message["type"]
                if mtype == "overloaded":
                    result.status = "overloaded"
                    result.message = (
                        f"queued {message.get('queued')}/{message.get('limit')}"
                    )
                    return result
                if mtype == "error":
                    result.status = "error"
                    result.message = message.get("message", "")
                    return result
                if mtype == "batch_done":
                    result.status = "done"
                    return result
                if mtype == "job_error":
                    result.errors[message["index"]] = tuple(message["error"])
                if mtype != "result":
                    continue  # accepted, or a job_error
                # a result line laid out otherwise than encode prints it
                index = message["index"]
                wire = message["outcome"]
                outcome = outcome_from_wire(wire)
            result.wire[index] = wire
            result.outcomes[index] = outcome
            if on_result is not None:
                on_result(index, outcome)

    def stats(self) -> dict[str, Any]:
        """The server's counter/LRU/queue snapshot."""
        self._write({"type": "stats"})
        while True:
            message = self._read()
            if message["type"] == "stats":
                return message

    def close(self) -> None:
        try:
            self._write({"type": "bye"})
        except (OSError, ValueError):
            pass
        self._file.close()
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
