"""End-to-end tests for the tflux-serve server (real sockets, in-thread).

The load-bearing properties: streamed outcomes are bit-identical to a
direct :func:`repro.exec.run_job`, a dedup herd costs exactly one
simulation per unique spec, admission refuses (never buffers) past the
bounds, and failures surface as ``job_error`` without poisoning any
cache.
"""

import ast
import contextlib
import gc
import inspect
import json
import logging
import multiprocessing
import os
import re
import socket
import sys
import threading
import time
import warnings

import pytest

from repro.exec import ResultCache, run_job
import repro.serve.client as client_module
import repro.serve.scheduler as scheduler_module
from repro.serve import (
    ServeClient,
    ServeConfig,
    TFluxServer,
    job_to_wire,
    serve_in_thread,
)
from repro.serve.protocol import WireError, encode, job_from_wire, outcome_to_wire

#: Two distinct cheap cells (trapez small) — the workhorse grid.
GRID = [
    job_to_wire("trapez", nkernels=2, unroll=1),
    job_to_wire("trapez", nkernels=2, unroll=2),
]


@pytest.fixture
def spawn():
    handles = []

    def _spawn(cache=None, unix=None, workers=1):
        handle = serve_in_thread(
            config=ServeConfig(workers=workers), cache=cache, unix=unix
        )
        handles.append(handle)
        return handle

    yield _spawn
    for handle in handles:
        handle.stop()


def test_streamed_records_bit_identical_to_direct_run(spawn):
    """The serving stack changes when results arrive, never what they
    are: the wire outcome equals outcome_to_wire(run_job(spec)) byte for
    byte, RunRecord payload included."""
    handle = spawn()
    with ServeClient(handle.address, tenant="diff") as client:
        batch = client.submit(GRID)
    assert batch.ok
    for i, wire_job in enumerate(GRID):
        direct = outcome_to_wire(run_job(job_from_wire(wire_job)))
        served = batch.wire[i]
        assert json.dumps(served, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )


def test_results_stream_incrementally(spawn):
    handle = spawn()
    seen = []
    with ServeClient(handle.address) as client:
        batch = client.submit(GRID, on_result=lambda i, o: seen.append(i))
    assert sorted(seen) == [0, 1]  # every result streamed before batch_done
    assert all(o is not None for o in batch.outcomes)


def test_dedup_two_tenants_one_simulation_per_unique_spec(spawn):
    """Two tenants — then a herd of sixteen — race the same grid: total
    simulations equals unique specs; every duplicate is a coalesced
    flight or an LRU hit.  The invariant holds however the race
    interleaves."""
    for nclients in (2, 16):
        handle = spawn()  # fresh LRU and counters per herd size
        names = [f"tenant{c}" for c in range(nclients)]
        batches = {}

        def tenant(name):
            with ServeClient(handle.address, tenant=name) as client:
                batches[name] = client.submit(GRID)

        threads = [threading.Thread(target=tenant, args=(n,)) for n in names]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(batches[n].ok for n in names)
        # Bit-identical across tenants, index by index.
        for n in names[1:]:
            assert batches[n].wire == batches[names[0]].wire

        with ServeClient(handle.address) as client:
            stats = client.stats()
        unique, total = len(GRID), nclients * len(GRID)
        assert stats["executed"] == unique, nclients
        counters = stats["counters"]
        assert counters["serve.admitted"] == total
        assert (
            counters.get("serve.deduped", 0) + counters.get("serve.lru_hits", 0)
            == total - unique
        ), nclients
        # Per-tenant accounting rode along.
        for n in names:
            assert counters[f"serve.tenant.{n}.completed"] == len(GRID)


def test_overloaded_reply_instead_of_buffering(spawn, monkeypatch):
    monkeypatch.setattr(scheduler_module, "MAX_QUEUED_TOTAL", 2)
    monkeypatch.setattr(scheduler_module, "MAX_QUEUED_PER_TENANT", 2)
    handle = spawn()
    with ServeClient(handle.address, tenant="greedy") as client:
        batch = client.submit([GRID[0]] * 3)  # 3 > global bound of 2
        assert batch.status == "overloaded"
        assert batch.message == "queued 0/2"  # the limit the reply reports
        assert all(o is None for o in batch.outcomes)  # nothing ran
        # A batch that fits is accepted on the same connection.
        assert client.submit([GRID[0]]).ok
        stats = client.stats()
    assert stats["counters"]["serve.rejected"] == 3
    assert stats["counters"]["serve.tenant.greedy.rejected"] == 3


def test_malformed_batch_rejected_whole(spawn):
    handle = spawn()
    with ServeClient(handle.address) as client:
        batch = client.submit([GRID[0], {"bench": "no-such-bench"}])
        assert batch.status == "error"
        assert "no-such-bench" in batch.message
        batch = client.submit([{"bench": "trapez", "bogus_field": 1}])
        assert batch.status == "error"
        # A composition the platform refuses is an admission error too,
        # not a job_error after a pool round trip.
        batch = client.submit(
            [GRID[0], {"bench": "trapez", "platform": "dist", "cluster": -1}]
        )
        assert batch.status == "error"
        assert "cluster_size" in batch.message
        # JSON's Infinity is a float no int() takes: refused, not a crash
        batch = client.submit(GRID, priority=float("inf"))
        assert batch.status == "error"
        assert "cannot convert float infinity to integer" in batch.message
        stats = client.stats()
    assert stats["executed"] == 0  # admission is all-or-nothing


@pytest.mark.parametrize(
    "field, value, text",
    [
        ("unroll", 0, "unroll must be >= 1"),
        ("nkernels", 99, "tfluxhard offers at most 27 kernels (99 requested)"),
        ("nkernels", -2, "nkernels must be >= 1"),
        ("max_threads", 0, "max_threads must be >= 1"),
        ("tsu_capacity", 0, "tsu_capacity must be >= 1"),
        ("tsu_capacity", -5, "tsu_capacity must be >= 1"),
        ("unroll", float("inf"), "cannot convert float infinity to integer"),
    ],
)
def test_job_that_can_never_run_is_refused_at_admission(spawn, field, value, text):
    """An out-of-range count costs one ``error`` reply — not a scheduler
    slot, an in-flight slot and a worker round trip ending in a
    ``job_error`` from deep inside the build."""
    handle = spawn()
    with ServeClient(handle.address) as client:
        batch = client.submit([GRID[0], {"bench": "trapez", field: value}])
        assert batch.status == "error"
        assert text in batch.message
        assert all(o is None for o in batch.outcomes)
        assert client.submit([GRID[0]]).ok  # the connection is still good
        stats = client.stats()
    assert stats["executed"] == 1  # only the good batch's job
    assert stats["counters"]["serve.admitted"] == 1


class _BrokenCache:
    """A disk layer that fails on read — drives the job_error path."""

    def __init__(self):
        self.hits = self.misses = self.stores = 0

    def get(self, digest):
        raise RuntimeError("disk exploded")

    def put(self, digest, value):  # pragma: no cover - never reached
        pass

    def publish_counters(self, counters):
        pass


def test_job_failure_streams_job_error_and_is_not_cached(spawn):
    handle = spawn(cache=_BrokenCache())
    with ServeClient(handle.address) as client:
        batch = client.submit([GRID[0]])
        assert batch.status == "done" and not batch.ok
        cls, msg = batch.errors[0]
        assert cls == "builtins.RuntimeError" and "disk exploded" in msg
        # The failure was rejected from the flight table, not cached:
        # resubmitting fails again (a cached failure would succeed).
        assert not batch.outcomes[0]
        assert not client.submit([GRID[0]]).ok
        stats = client.stats()
    assert stats["executed"] == 0
    assert stats["lru"]["size"] == 0


def test_disk_cache_survives_server_restart(spawn, tmp_path):
    first = spawn(cache=ResultCache(tmp_path))
    with ServeClient(first.address) as client:
        assert client.submit(GRID).ok
        stats = client.stats()
    assert stats["counters"]["exec.cache.stores"] == len(GRID)
    assert stats["counters"]["exec.cache.misses"] == len(GRID)

    second = spawn(cache=ResultCache(tmp_path))  # fresh LRU, same disk
    with ServeClient(second.address) as client:
        assert client.submit(GRID).ok
        stats = client.stats()
    assert stats["executed"] == 0  # everything answered from disk
    assert stats["counters"]["exec.cache.hits"] == len(GRID)


def test_unix_socket_transport(spawn, tmp_path):
    path = str(tmp_path / "tflux.sock")
    handle = spawn(unix=path)
    with ServeClient(path, tenant="sock") as client:
        batch = client.submit([GRID[0]])
    assert batch.ok


def test_stats_message_shape(spawn):
    handle = spawn()
    with ServeClient(handle.address, tenant="observer") as client:
        client.submit([GRID[0]])
        stats = client.stats()
    assert stats["workers"] == 1
    assert stats["queue_depth"] == 0
    assert "observer" in stats["tenants"]
    lru = stats["lru"]
    assert lru["capacity"] == 512 and lru["size"] == 1 and lru["inflight"] == 0
    # Gauges ride in the counter registry for one-stop scraping.
    assert "serve.lru_size" in stats["counters"]
    assert "serve.queue_depth" in stats["counters"]


def test_encoded_identity_over_a_server_life(spawn, tmp_path):
    """Every flight that resolves is encoded exactly once, whether the
    pool or the disk cache answered it: per server life
    ``serve.encoded == serve.executed + exec.cache.hits``."""
    for executed in (len(GRID), 0):  # a cold life, then one served from disk
        handle = spawn(cache=ResultCache(tmp_path))
        with ServeClient(handle.address) as client:
            for _ in range(3):
                assert client.submit(GRID).ok
            counters = client.stats()["counters"]
        assert counters.get("serve.executed", 0) == executed
        assert counters["serve.encoded"] == len(GRID)
        assert counters["serve.encoded"] == executed + counters["exec.cache.hits"]


# -- worker death ----------------------------------------------------------------------

#: ``max_threads`` of the one spec that kills its worker.
_CRASH_MARK = 4000


def _crash_on_marked(spec):
    """``run_job``, except that the marked spec takes its worker down the
    way a segfault would.  Module-level, so the forked worker resolves it."""
    if spec.max_threads == _CRASH_MARK:
        os._exit(13)
    return run_job(spec)


def _child_pids():
    return {p.pid for p in multiprocessing.active_children()}


def test_crashed_worker_is_replaced_and_only_its_flights_fail(
    spawn, monkeypatch, tmp_path
):
    """One dead worker breaks a ``ProcessPoolExecutor`` for good; the
    server swaps the pool once, fails the job that was on it (uncached),
    and serves the next tenant's never-seen jobs from the new one."""
    monkeypatch.setattr("repro.serve.server.run_job", _crash_on_marked)
    before = _child_pids()
    cache = ResultCache(tmp_path)
    handle = spawn(cache=cache)
    with ServeClient(handle.address) as client:
        guilty = client.submit(
            [job_to_wire("trapez", nkernels=2, unroll=1, max_threads=_CRASH_MARK)]
        )
        assert guilty.status == "done" and not guilty.ok
        assert guilty.errors[0][0] == "concurrent.futures.process.BrokenProcessPool"
        survivors = client.submit(
            [
                job_to_wire("trapez", nkernels=2, unroll=1, max_threads=64 + i)
                for i in range(3)
            ]
        )
        assert survivors.ok, survivors.errors
        stats = client.stats()
    assert stats["counters"]["serve.worker_restarts"] == 1
    assert stats["executed"] == stats["counters"]["serve.executed"] == 3
    assert stats["lru"]["size"] == len(cache) == 3  # no failed digest anywhere
    workers = _child_pids() - before
    assert workers  # the replacement is a live child of this process ...
    handle.stop()
    deadline = time.monotonic() + 10
    while _child_pids() & workers:  # ... and does not outlive the server
        assert time.monotonic() < deadline, "pool worker outlived stop()"
        time.sleep(0.02)


# -- teardown and abort --------------------------------------------------------------

def test_stop_with_a_connected_client_is_clean(spawn, caplog, monkeypatch):
    """``aclose`` owns the per-connection tasks too: an idle client reads
    EOF at once, and nothing is left pending for the closed loop to
    complain about ("Task was destroyed but it is pending!", "Event loop
    is closed")."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    handle = spawn()
    with socket.create_connection(handle.address) as sock:
        sock.settimeout(1)
        assert b'"welcome"' in sock.recv(4096)
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            handle.stop()
            assert sock.recv(4096) == b""  # EOF within the 1 s timeout
            gc.collect()  # destroy what the loop left behind, if anything
    assert not handle._thread.is_alive()
    assert not [r for r in caplog.records if "destroyed" in r.getMessage()]
    assert not unraisable


#: A file that, once it exists, lets :func:`_run_after_gate` run its job.
_GATE = None


def _until(condition, what):
    deadline = time.monotonic() + 60
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


def _run_after_gate(spec):
    """``run_job`` once :data:`_GATE` exists.  Module-level, so the forked
    worker resolves it (and sees the path set before the fork)."""
    _until(lambda: os.path.exists(_GATE), "the gate never opened")
    return run_job(spec)


def test_vanished_client_costs_only_what_was_in_flight(spawn, monkeypatch, tmp_path):
    """A client that disconnects after ``accepted``: its queued jobs are
    dropped at dispatch (``serve.client_aborts``), not simulated and
    encoded for nobody; nothing of them is cached, and the next tenant is
    served as if it had never been there.  No flight settles before the
    server has read the client's end of stream: the jobs wait on a gate
    the test opens only once that connection is gone."""
    jobs = [
        job_to_wire("trapez", nkernels=2, unroll=1, max_threads=64 + i)
        for i in range(12)
    ]
    gate = tmp_path / "gate"
    monkeypatch.setattr(sys.modules[__name__], "_GATE", str(gate))
    monkeypatch.setattr("repro.serve.server.run_job", _run_after_gate)
    cache = ResultCache(tmp_path / "cache")
    handle = spawn(cache=cache)  # one worker: at most two flights at once
    with socket.create_connection(handle.address) as sock, sock.makefile("rwb") as stream:
        sock.settimeout(60)
        stream.write(encode({"type": "hello", "tenant": "ghost"}))
        stream.write(encode({"type": "submit", "batch_id": "b", "jobs": jobs}))
        stream.flush()
        while json.loads(stream.readline())["type"] != "accepted":
            pass
    # The handler forgets its connection after marking it closed.
    _until(lambda: not handle.server._clients, "the server never read the end of stream")
    gate.touch()
    with ServeClient(handle.address, tenant="survivor") as client:
        stats = {}

        def drained():
            stats.update(client.stats())
            return stats["queue_depth"] == 0 and stats["lru"]["inflight"] == 0

        _until(drained, "scheduler did not drain")
        ran = stats["executed"]
        assert ran <= 2  # the in-flight bound, not 12
        assert stats["counters"]["serve.client_aborts"] == len(jobs) - ran
        assert stats["lru"]["size"] == len(cache) == ran
        # The last two dropped jobs and one new one: all three simulate.
        batch = client.submit(jobs[-2:] + [GRID[1]])
        stats = client.stats()
    assert batch.ok
    assert stats["executed"] == ran + 3
    assert stats["lru"]["size"] == len(cache) == ran + 3
    assert stats["counters"]["serve.tenant.survivor.completed"] == 3


def test_warmed_worker_inherits_no_collectable_pool():
    """A forked worker must not inherit an earlier pool as uncollected
    garbage: its first collection would run that pool's weakref callback,
    which takes the pool's shutdown lock — held, in the copy, by whichever
    parent thread had it at the fork — and wait forever (a stopped
    server's pool, and its still-running manager thread, are exactly
    that when the next server starts)."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.exec.pool import pool_context
    from repro.serve.server import _warm

    gc.disable()  # only an explicit collection may free the old pool
    try:
        old = ProcessPoolExecutor(max_workers=1, mp_context=pool_context())
        old.submit(os.getpid).result()
        old.shutdown(wait=False)
        lock = old._shutdown_lock
        cycle = [old]
        cycle.append(cycle)
        del old, cycle
        lock.acquire()  # a parent thread holds it across the fork ...
        threading.Timer(0.5, lock.release).start()  # ... and lets go
        fresh = ProcessPoolExecutor(max_workers=1, mp_context=pool_context())
        try:
            _warm(fresh)
            assert fresh.submit(gc.collect).result(timeout=20) >= 0
        finally:
            for process in list(fresh._processes.values()):
                process.kill()
            fresh.shutdown(wait=False, cancel_futures=True)
    finally:
        gc.enable()


# -- the client ------------------------------------------------------------------

@contextlib.contextmanager
def _peer(reply):
    """A raw-socket stand-in for the server: it sends the welcome line,
    then ``reply(line)`` for each line the client sends, and holds the
    connection open until the block ends."""
    listener = socket.create_server(("127.0.0.1", 0))
    done = threading.Event()

    def run():
        conn, _ = listener.accept()
        # a client that refuses a line closes with it unread: a reset
        with conn, conn.makefile("rwb") as stream, contextlib.suppress(
            ConnectionResetError
        ):
            stream.write(encode({"type": "welcome", "server": "peer", "wire": 1}))
            stream.flush()
            for line in iter(stream.readline, b""):
                stream.write(reply(line))
                stream.flush()
            done.wait(30)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        done.set()
        listener.close()
        thread.join(30)
        assert not thread.is_alive()


@pytest.mark.parametrize(
    "greeting",
    [encode({"type": "error", "message": "busy"}), b""],
    ids=["not-welcome", "closed"],
)
def test_failed_greeting_closes_the_client_socket(greeting):
    """A client whose greeting fails leaves no socket open: nothing is
    left for the collector to find and warn about."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        conn, _ = listener.accept()
        with conn:
            conn.sendall(greeting)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ConnectionError):
                ServeClient(listener.getsockname())
            gc.collect()
    finally:
        listener.close()
        thread.join(30)
    assert not thread.is_alive()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


@pytest.mark.parametrize(
    "tail",
    [b'"pad":"' + b"x" * 1024 + b'","type":"stats"}\n', b"x" * 1024],
    ids=["complete", "unterminated"],
)
def test_client_refuses_an_over_long_line_promptly(monkeypatch, tail):
    monkeypatch.setattr(client_module, "MAX_LINE_BYTES", 256)
    monkeypatch.setattr(client_module, "SOCKET_TIMEOUT", 10.0)
    with _peer(lambda line: b"{" + tail) as address:
        client = ServeClient(address)
        start = time.monotonic()
        with pytest.raises(WireError, match="longer than 256 bytes"):
            client.stats()
        assert time.monotonic() - start < 5
        client.close()


@pytest.mark.parametrize("reply", ["message", "result"])
def test_client_refuses_a_line_nested_too_deep(reply):
    """A peer's line nested deeper than the JSON parser recurses is a
    ``WireError``, whether it is a reply the client decodes whole or the
    outcome of a result line in ``encode``'s layout."""
    deep = b"[" * 100_000 + b"]" * 100_000
    if reply == "message":
        line = b'{"pad":' + deep + b',"type":"stats"}\n'
    else:
        line = b'{"batch_id":"000000000001","index":0,"outcome":' + deep
        line += b',"type":"result"}\n'

    def answer(request):
        return line if json.loads(request)["type"] != "bye" else b""

    with _peer(answer) as address, ServeClient(address) as client:
        with pytest.raises(WireError, match="bad JSON"):
            if reply == "message":
                client.stats()
            else:
                client.submit(GRID[:1])


@pytest.mark.parametrize("shape", ["unterminated", "oversized", "nested", "not-utf8"])
def test_server_refuses_a_bad_line_and_admits_nothing(spawn, monkeypatch, shape):
    """A final line the stream ends before its newline, a line past
    ``MAX_LINE_BYTES``, a line nested deeper than the JSON parser
    recurses and a line that is not UTF-8 each get one ``error`` reply
    and the connection closes; the submit the line carries is never
    admitted."""
    if shape != "nested":  # the nested line is longer than this
        monkeypatch.setattr("repro.serve.server.MAX_LINE_BYTES", 256)
    handle = spawn()
    submit = {"type": "submit", "batch_id": "b", "jobs": GRID[:1]}
    if shape == "unterminated":
        payload = encode(submit)[:-1]
    elif shape == "oversized":
        payload = encode(dict(submit, pad="x" * 300))
    elif shape == "nested":
        deep = b"[" * 100_000 + b"]" * 100_000  # well-formed, too deep
        payload = encode(submit)[:-2] + b',"pad":' + deep + b"}\n"
    else:
        payload = encode(submit)[:-2] + b',"pad":"\xff"}\n'
    with socket.create_connection(handle.address, timeout=10) as sock:
        sock.sendall(payload)
        if shape != "oversized":
            sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as stream:
            replies = [json.loads(line) for line in stream]  # until it closes
    assert [r["type"] for r in replies] == ["welcome", "error"]
    with ServeClient(handle.address) as client:
        assert client.stats()["counters"].get("serve.admitted", 0) == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_unique_simulations_in_flight_never_exceed_twice_the_workers(
    spawn, monkeypatch, workers
):
    """Dispatch claims a flight only while fewer than ``2 * workers`` are
    pending, so a batch of 3x that many distinct jobs starts each
    simulation with at most ``2 * workers`` in flight — and the first
    ``2 * workers`` start together."""
    pending = []
    compute = TFluxServer._compute

    async def counted(self, digest, spec):
        pending.append(self.lru.inflight)
        await compute(self, digest, spec)

    monkeypatch.setattr(TFluxServer, "_compute", counted)
    handle = spawn(workers=workers)
    jobs = [
        job_to_wire("trapez", nkernels=2, unroll=1, max_threads=64 + i)
        for i in range(6 * workers)
    ]
    with ServeClient(handle.address) as client:
        assert client.submit(jobs).ok
        assert client.stats()["executed"] == len(jobs)
    assert len(pending) == len(jobs)
    assert max(pending) == 2 * workers == pending[0]


def test_batch_ids_are_per_connection_hex_counters(spawn):
    handle = spawn()
    with ServeClient(handle.address) as client:
        ids = [client.submit(GRID).batch_id for _ in range(3)]
    assert all(re.fullmatch(r"[0-9a-f]{12}", batch_id) for batch_id in ids)
    assert len(set(ids)) == len(ids)
    imports = {
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(client_module)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "uuid" not in imports  # a batch id costs no syscall


def test_client_skips_a_result_of_an_earlier_batch(spawn):
    with ServeClient(spawn().address) as client:
        real = client.submit(GRID[:1]).wire[0]
    stale = dict(real, cycles=real["cycles"] + 1)

    ids = []

    def reply(line):
        message = json.loads(line)
        if message["type"] != "submit":
            return b""
        ids.append(message["batch_id"])
        # a late result of every earlier batch, then this batch's own
        lines = [
            {"type": "result", "batch_id": earlier, "index": 0, "outcome": stale}
            for earlier in ids[:-1]
        ]
        lines += [
            {"type": "result", "batch_id": ids[-1], "index": 0, "outcome": real},
            {"type": "batch_done", "batch_id": ids[-1]},
        ]
        return b"".join(map(encode, lines))

    seen = []
    with _peer(reply) as address, ServeClient(address) as client:
        batches = [
            client.submit(GRID[:1], on_result=lambda i, o: seen.append(i))
            for _ in range(3)
        ]
    assert len(set(ids)) == 3 and seen == [0, 0, 0]
    for batch in batches:
        assert batch.ok
        assert batch.wire[0] == real
