"""``tflux-serve``: the long-running multi-tenant simulation server.

Architecture (one asyncio loop + one persistent process pool)::

    client conns ──admission──▶ FairScheduler ──dispatch──▶ SingleFlightLRU
      (NDJSON)    (bounded,      (per-tenant RR             │ hit ──────▶ stream
                   overloaded     + priority aging)         │ coalesce ─▶ stream
                   reply)                                   ▼ miss (leader)
                                                     disk ResultCache
                                                            ▼ miss
                                                 ProcessPoolExecutor.run_job

* **Admission** is all-or-nothing per batch against the scheduler's
  bounds; a refused batch gets an explicit ``overloaded`` reply instead
  of unbounded buffering.
* **Dispatch** pulls from the scheduler only while fewer than
  ``max_inflight`` *unique* simulations are running — LRU hits and
  coalesced duplicates consume no slot.  Classification (LRU → in-flight
  → disk → pool) is synchronous on the loop, so the in-flight bound is
  exact.
* **The pool is persistent**: one ``ProcessPoolExecutor`` created (and
  warmed) at :meth:`TFluxServer.start`, reused for every request —
  worker start-up is paid once per server, not once per batch
  (:func:`repro.exec.pool.run_jobs` spins a pool per call; the server
  explicitly does not).  A dead worker breaks a ``ProcessPoolExecutor``
  for good, so the first flight to come back ``BrokenProcessPool``
  replaces it (``serve.worker_restarts``); the flights that were on it
  are rejected — which one killed it is not knowable.
* **Results stream**: each finished cell is written to its tenant the
  moment it resolves (``result`` messages in completion order, then
  ``batch_done``) — no wait-for-whole-batch.
* **A hit is a lookup and a send**: what is a function of the job alone
  is computed once per job.  A wire job resolves to ``(JobSpec,
  digest)`` once per distinct form (``TFluxServer._resolve``, a
  bounded memo); an outcome is encoded once per digest, by the flight's
  leader, and the flight's value *is* those bytes — a delivery splices
  ``batch_id``/``index`` around them
  (:func:`repro.serve.protocol.result_line`); a connection's writer
  sends everything queued since it last woke in one write.
* **Everything is counted** through :mod:`repro.obs`:
  ``serve.admitted/rejected/deduped/lru_hits/evictions/executed/completed``
  globally, the same set per tenant under ``serve.tenant.<name>.*``,
  ``serve.encoded/admission_memo_hits/writes/client_aborts/worker_restarts``, and
  the disk cache's ``exec.cache.hits/misses/stores`` merged into every
  stats reply so in-memory and on-disk effectiveness are comparable in
  one place.

Dedup, LRU and streaming change *when* results arrive, never *what*
they are: an outcome is computed by the same :func:`repro.exec.pool.run_job`
a direct sweep uses, and the differential tests pin the streamed records
bit-identical to a pool run.

Sizing is a :class:`ServeConfig` (one ``tflux-serve`` flag per field);
``TFLUX_CACHE_DIR`` selects the on-disk layer, exactly as in
:mod:`repro.exec`.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import re
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Optional

from repro.exec.cache import ResultCache, cache_from_env, spec_digest
from repro.exec.pool import JobSpec, error_pair, pool_context, run_job
from repro.exec.singleflight import SingleFlightLRU
from repro.obs import Counters
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    WIRE_VERSION,
    WireError,
    decode,
    encode,
    job_from_wire,
    outcome_to_wire,
    result_line,
)
from repro.serve.scheduler import FairScheduler

__all__ = ["ServeConfig", "TFluxServer", "ServerHandle", "serve_in_thread"]

#: Sentinel: "resolve the disk cache from the environment".
_ENV_CACHE = object()


@dataclass
class ServeConfig:
    """Server sizing; every field has a ``tflux-serve`` flag."""

    workers: int = 1
    lru_capacity: int = 512
    #: Unique simulations allowed to run at once; 0 = ``2 * workers``
    #: (keeps the pool fed while results stream out).
    max_inflight: int = 0
    max_queued_per_tenant: int = 256
    max_queued_total: int = 1024
    aging_rounds: int = 4

    @property
    def effective_inflight(self) -> int:
        return self.max_inflight or 2 * self.workers


def _counter_key(tenant: str) -> str:
    """Tenant name as a counter-safe identifier (``repro.obs`` names are
    dotted identifiers; arbitrary tenant strings are sanitised)."""
    key = re.sub(r"\W", "_", tenant) or "anon"
    return key if key.isidentifier() else f"t_{key}"


def _warm(executor: ProcessPoolExecutor) -> None:
    """Fork a worker now, so the first request pays no start-up and
    later forks don't race a busy loop thread.

    The parent's garbage is collected first.  An earlier pool left for
    the cycle collector (a stopped server's) would otherwise be copied
    into the worker, whose first collection runs that pool's weakref
    callback: it takes the pool's shutdown lock, which the copy holds
    for ever if a parent thread — that pool's manager — held it at the
    fork.
    """
    gc.collect()
    executor.submit(os.getpid).result()


def _resolve(job_line: bytes) -> tuple[JobSpec, str]:
    """The spec and digest an encoded wire job stands for."""
    spec = job_from_wire(json.loads(job_line))
    return spec, spec_digest(spec)


class _Batch:
    """Bookkeeping for one admitted submit message."""

    __slots__ = ("conn", "tenant_key", "batch_id", "remaining")

    def __init__(self, conn: "_Connection", batch_id: str, njobs: int) -> None:
        self.conn = conn
        self.tenant_key = conn.tenant_key  # as named when the batch came in
        self.batch_id = batch_id
        self.remaining = njobs


class _Job:
    """One admitted job: where it came from and what to run."""

    __slots__ = ("batch", "index", "spec", "digest")

    def __init__(self, batch: _Batch, index: int, spec: JobSpec, digest: str) -> None:
        self.batch = batch
        self.index = index
        self.spec = spec
        self.digest = digest


class _Connection:
    """Per-client state: identity plus a queue of encoded outgoing lines.

    A dedicated writer task drains the queue so slow readers exert
    backpressure on their own stream without stalling the dispatcher.
    """

    _ids = itertools.count(1)

    def __init__(self) -> None:
        self.set_tenant(f"anon{next(self._ids)}")
        self.out: list[bytes] = []
        self.wake = asyncio.Event()  # lines queued, or closed
        self.closed = False

    def set_tenant(self, tenant: str) -> None:
        self.tenant = tenant
        self.tenant_key = _counter_key(tenant)

    def send(self, message: dict[str, Any]) -> None:
        self.write(encode(message))

    def write(self, line: bytes) -> None:
        if not self.closed:
            self.out.append(line)
            self.wake.set()

    def close(self) -> None:
        self.closed = True
        self.wake.set()  # let the writer flush what is queued and end


class TFluxServer:
    """The asyncio simulation server (see module docstring)."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        cache: "Optional[ResultCache] | object" = _ENV_CACHE,
    ) -> None:
        self.config = config or ServeConfig()
        self.cache = cache_from_env() if cache is _ENV_CACHE else cache
        self.counters = Counters()
        self.scheduler = FairScheduler(
            max_queued_per_tenant=self.config.max_queued_per_tenant,
            max_queued_total=self.config.max_queued_total,
            aging_rounds=self.config.aging_rounds,
        )
        #: digest -> the outcome's encoded wire form (``encode`` bytes).
        self.lru = SingleFlightLRU(self.config.lru_capacity)
        #: The admission memo: one resolution per distinct encoded wire
        #: job, as many as the result LRU holds.  ``lru_cache`` keeps no
        #: call that raised, so a refused job is refused afresh each time.
        self._resolve = lru_cache(maxsize=self.config.lru_capacity)(_resolve)
        #: Simulations actually handed to the pool (the single-flight
        #: acceptance number: equals unique specs under a dedup herd).
        self.executed = 0
        self._batches = itertools.count(1)
        self._wake = asyncio.Event()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._tasks: set[asyncio.Task] = set()
        #: Connection handler tasks and the stream each one owns.
        self._clients: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- lifecycle -------------------------------------------------------------
    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix: Optional[str] = None,
    ) -> "TFluxServer":
        """Bind, warm the worker pool, and start dispatching."""
        self._executor = self._new_pool()
        _warm(self._executor)
        if unix is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=unix, limit=MAX_LINE_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=host, port=port, limit=MAX_LINE_BYTES
            )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.config.workers, mp_context=pool_context()
        )

    async def _replace_pool(self, broken: ProcessPoolExecutor) -> None:
        """Swap *broken* for a fresh warmed pool — once, however many of
        its flights report it (the later ones find it already replaced)."""
        if self._executor is broken:
            broken.shutdown(wait=False, cancel_futures=True)
            self._executor = fresh = self._new_pool()
            self.counters.inc("serve.worker_restarts")
            # Off the loop thread: warming blocks until the worker answers.
            await asyncio.get_running_loop().run_in_executor(None, _warm, fresh)

    @property
    def address(self) -> Any:
        """The bound socket address (``(host, port)`` for TCP)."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, drop every client, cancel in-flight work,
        release the pool."""
        if self._server is not None:
            self._server.close()
        # abort, not close: close waits for a stalled reader to take what
        # is buffered, and teardown must not wait on a client.  A handler
        # reads EOF, ends its writer and returns.
        for writer in self._clients.values():
            writer.transport.abort()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(
            *([self._dispatcher] if self._dispatcher else []),
            *self._tasks,
            *self._clients,
            return_exceptions=True,
        )
        if self._server is not None:
            await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    # -- connection handling ---------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection()
        conn.send({"type": "welcome", "server": "tflux-serve", "wire": WIRE_VERSION})
        handler = asyncio.current_task()
        self._clients[handler] = writer
        writer_task = asyncio.create_task(self._write_loop(conn, writer))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    conn.send({"type": "error", "message": "message line too long"})
                    break
                if not line:
                    break
                try:
                    message = decode(line)
                except WireError as exc:
                    conn.send({"type": "error", "message": str(exc)})
                    continue
                mtype = message["type"]
                if mtype == "hello":
                    conn.set_tenant(str(message.get("tenant") or conn.tenant))
                elif mtype == "submit":
                    self._admit(conn, message)
                elif mtype == "stats":
                    conn.send(self.stats_message())
                elif mtype == "bye":
                    break
                else:
                    conn.send(
                        {"type": "error", "message": f"unknown message type {mtype!r}"}
                    )
        finally:
            conn.close()
            try:
                await writer_task
            except asyncio.CancelledError:  # teardown race
                pass
            writer.close()
            del self._clients[handler]

    async def _write_loop(
        self, conn: _Connection, writer: asyncio.StreamWriter
    ) -> None:
        """One transport write per wake: everything queued since the last
        one, then ``drain`` — the backpressure point of this stream."""
        try:
            while True:
                await conn.wake.wait()
                conn.wake.clear()
                lines, conn.out = conn.out, []
                if lines:
                    writer.write(b"".join(lines))
                    self.counters.inc("serve.writes")
                    await writer.drain()
                if conn.closed and not conn.out:
                    break
        except (ConnectionError, asyncio.CancelledError):
            conn.closed = True

    # -- admission -------------------------------------------------------------
    def _admit(self, conn: _Connection, message: dict[str, Any]) -> None:
        batch_id = str(message.get("batch_id") or f"batch{next(self._batches)}")
        jobs_wire = message.get("jobs")
        if not isinstance(jobs_wire, list) or not jobs_wire:
            conn.send(
                {"type": "error", "batch_id": batch_id,
                 "message": "submit needs a non-empty 'jobs' list"}
            )
            return
        try:
            priority = int(message.get("priority", 0))
            resolved = [self._resolve(encode(job)) for job in jobs_wire]
        except (WireError, TypeError, ValueError) as exc:
            conn.send({"type": "error", "batch_id": batch_id, "message": str(exc)})
            return
        tenant_key = conn.tenant_key
        if not self.scheduler.can_accept(conn.tenant, len(resolved)):
            self.counters.inc("serve.rejected", len(resolved))
            self.counters.inc(f"serve.tenant.{tenant_key}.rejected", len(resolved))
            conn.send(
                {
                    "type": "overloaded",
                    "batch_id": batch_id,
                    "queued": self.scheduler.pending_total,
                    "limit": self.scheduler.max_queued_total,
                    "tenant_queued": self.scheduler.pending(conn.tenant),
                    "tenant_limit": self.scheduler.max_queued_per_tenant,
                }
            )
            return
        batch = _Batch(conn, batch_id, len(resolved))
        for index, (spec, digest) in enumerate(resolved):
            job = _Job(batch, index, spec, digest)
            admitted = self.scheduler.submit(conn.tenant, job, priority)
            assert admitted  # can_accept covered the whole batch
        self.counters.inc("serve.admitted", len(resolved))
        self.counters.inc(f"serve.tenant.{tenant_key}.admitted", len(resolved))
        conn.send({"type": "accepted", "batch_id": batch_id, "jobs": len(resolved)})
        self._wake.set()

    # -- dispatch --------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            self._pump()

    def _pump(self) -> None:
        """Drain the scheduler while unique-simulation slots are free.

        Classification is synchronous, so the in-flight bound is exact
        and hits/coalesces never occupy a slot.  Flights resolve on this
        thread too, so a non-leader claim that is already done is an LRU
        hit (delivered on the spot) and one still pending is a
        coalesced duplicate.
        """
        while self.lru.inflight < self.config.effective_inflight:
            entry = self.scheduler.next()
            if entry is None:
                return
            _, job = entry
            if job.batch.conn.closed:  # its client is gone: run nothing for it
                self.counters.inc("serve.client_aborts")
                continue
            fut, leader = self.lru.claim(job.digest)
            if leader:
                task = asyncio.create_task(self._compute(job.digest, job.spec))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
            else:
                kind = "lru_hits" if fut.done() else "deduped"
                self.counters.inc(f"serve.{kind}")
                self.counters.inc(f"serve.tenant.{job.batch.tenant_key}.{kind}")
            fut.add_done_callback(partial(self._deliver, job))

    async def _compute(self, digest: str, spec: JobSpec) -> None:
        """Leader path: disk cache, else the persistent pool; resolve the
        flight with the outcome's encoded wire form — the one encode of
        this digest — or reject it (failures are never cached)."""
        try:
            outcome = self.cache.get(digest) if self.cache is not None else None
            if outcome is None:
                loop = asyncio.get_running_loop()
                executor = self._executor
                try:
                    outcome = await loop.run_in_executor(executor, run_job, spec)
                except BrokenProcessPool:
                    await self._replace_pool(executor)
                    raise
                self.executed += 1
                self.counters.inc("serve.executed")
                if self.cache is not None:
                    self.cache.put(digest, outcome)
            outcome_line = encode(outcome_to_wire(outcome))
            self.counters.inc("serve.encoded")
        except asyncio.CancelledError:
            self.lru.reject(digest, ConnectionAbortedError("server shutting down"))
            raise
        except Exception as exc:
            self.lru.reject(digest, exc)
        else:
            self.lru.resolve(digest, outcome_line)
        finally:
            self._wake.set()

    # -- delivery --------------------------------------------------------------
    def _deliver(self, job: _Job, flight: Future) -> None:
        """Stream one job's settled *flight* (a result or a job_error)."""
        batch = job.batch
        error = flight.exception()
        if error is not None:
            batch.conn.send(
                {
                    "type": "job_error",
                    "batch_id": batch.batch_id,
                    "index": job.index,
                    "error": list(error_pair(error)),
                }
            )
        else:
            batch.conn.write(
                result_line(batch.batch_id, job.index, flight.result())
            )
        self.counters.inc("serve.completed")
        self.counters.inc(f"serve.tenant.{batch.tenant_key}.completed")
        batch.remaining -= 1
        if batch.remaining == 0:
            batch.conn.send({"type": "batch_done", "batch_id": batch.batch_id})

    # -- observability ---------------------------------------------------------
    def stats_counters(self) -> Counters:
        """Cumulative counters + point-in-time gauges, one registry.

        Includes the LRU's ``serve.lru_*``/``serve.evictions`` and the
        disk cache's ``exec.cache.*`` so in-memory dedup and on-disk
        memoisation are comparable side by side.
        """
        snapshot = Counters()
        snapshot.merge(self.counters)
        lru = self.lru.stats()
        snapshot.inc("serve.evictions", lru["evictions"])
        snapshot.inc("serve.lru_size", lru["size"])
        snapshot.inc("serve.queue_depth", self.scheduler.pending_total)
        snapshot.inc("serve.inflight", lru["inflight"])
        snapshot.inc("serve.admission_memo_hits", self._resolve.cache_info().hits)
        if self.cache is not None:
            self.cache.publish_counters(snapshot)
        return snapshot

    def stats_message(self) -> dict[str, Any]:
        return {
            "type": "stats",
            "counters": self.stats_counters().as_dict(),
            "executed": self.executed,
            "lru": self.lru.stats(),
            "queue_depth": self.scheduler.pending_total,
            "tenants": self.scheduler.tenants(),
            "workers": self.config.workers,
        }


# -- embedding helper ----------------------------------------------------------

class ServerHandle:
    """A server running on its own thread/loop (tests, benchmarks)."""

    def __init__(self, server: TFluxServer, address: Any,
                 loop: asyncio.AbstractEventLoop, thread: threading.Thread) -> None:
        self.server = server
        self.address = address
        self._loop = loop
        self._thread = thread

    def stop(self) -> None:
        if not self._thread.is_alive():
            return  # already stopped

        async def _shutdown() -> None:
            await self.server.aclose()
            asyncio.get_running_loop().stop()

        self._loop.call_soon_threadsafe(asyncio.ensure_future, _shutdown())
        self._thread.join(10.0)


def serve_in_thread(
    config: Optional[ServeConfig] = None,
    cache: "Optional[ResultCache] | object" = _ENV_CACHE,
    unix: Optional[str] = None,
) -> ServerHandle:
    """Start a :class:`TFluxServer` on a fresh background event loop.

    Returns once the socket is bound; ``handle.address`` is connectable
    immediately.  Exceptions during start-up re-raise in the caller.
    """
    started = threading.Event()
    box: dict[str, Any] = {}

    def _main() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = TFluxServer(config=config, cache=cache)

        async def _start() -> None:
            try:
                await server.start(unix=unix)
                box["server"] = server
                box["address"] = server.address
                box["loop"] = loop
            except BaseException as exc:  # surface bind/pool errors
                box["error"] = exc
                raise
            finally:
                started.set()

        try:
            loop.run_until_complete(_start())
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_main, name="tflux-serve", daemon=True)
    thread.start()
    started.wait()
    if "error" in box:
        raise box["error"]
    return ServerHandle(box["server"], box["address"], box["loop"], thread)
