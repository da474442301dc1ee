"""Blocking client for ``tflux-serve`` (sockets + NDJSON, no asyncio).

The client side of the protocol is deliberately plain: a socket, a
buffered reader, one JSON object per line.  :class:`ServeClient` drives
one connection — multiple concurrent tenants are multiple clients
(threads or processes), which is exactly how the throughput benchmark
and the CI smoke use it.

Results stream: ``submit`` invokes ``on_result`` the moment each cell's
``result`` message arrives (completion order), then returns the batch
reassembled in submission order.
"""

from __future__ import annotations

import itertools
import socket
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.exec.pool import JobOutcome
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    WireError,
    decode,
    encode,
    outcome_from_wire,
)

__all__ = ["BatchResult", "ServeClient"]

#: Seconds a client waits on the socket for the server's next line.
SOCKET_TIMEOUT = 300.0


@dataclass
class BatchResult:
    """What one submit produced.

    ``status`` is ``"done"`` (every job resolved), ``"overloaded"``
    (admission refused the whole batch — nothing ran) or ``"error"``
    (the batch was malformed).  ``outcomes`` is in submission order;
    a job that failed server-side leaves ``None`` there and a
    ``(fully-qualified exception, message)`` tuple in ``errors``.
    ``wire`` keeps the raw outcome JSON by index for bit-identical
    comparisons across clients.
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
            self._sock.connect(address)
        else:
            self._sock = socket.create_connection(address)
        self._sock.settimeout(SOCKET_TIMEOUT)
        self._file = self._sock.makefile("rwb")
        #: Batch ids need only be unique on this connection: the server
        #: echoes them and ``submit`` skips a stale one.
        self._batches = itertools.count(1)
        self.welcome = self._read()
        if self.welcome.get("type") != "welcome":
            raise ConnectionError(f"unexpected greeting: {self.welcome!r}")
        self.tenant = tenant
        if tenant:
            self._write({"type": "hello", "tenant": tenant})

    # -- protocol I/O ---------------------------------------------------------
    def _write(self, message: dict[str, Any]) -> None:
        self._file.write(encode(message))
        self._file.flush()

    def _read(self) -> dict[str, Any]:
        """The next message; a line is bounded as the server bounds one."""
        line = self._file.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        if not line.endswith(b"\n"):
            raise WireError(f"line cut short or longer than {MAX_LINE_BYTES} bytes")
        return decode(line)

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
            message = self._read()
            if message.get("batch_id") not in (None, batch_id):
                continue  # stale stream from a previous batch
            mtype = message["type"]
            if mtype == "accepted":
                continue
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
            if mtype == "result":
                index = message["index"]
                outcome = outcome_from_wire(message["outcome"])
                result.wire[index] = message["outcome"]
                result.outcomes[index] = outcome
                if on_result is not None:
                    on_result(index, outcome)
            elif mtype == "job_error":
                result.errors[message["index"]] = tuple(message["error"])
            elif mtype == "batch_done":
                result.status = "done"
                return result

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
