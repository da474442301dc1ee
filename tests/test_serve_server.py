"""End-to-end tests for the tflux-serve server (real sockets, in-thread).

The load-bearing properties: streamed outcomes are bit-identical to a
direct :func:`repro.exec.run_job`, a dedup herd costs exactly one
simulation per unique spec, admission refuses (never buffers) past the
bounds, and failures surface as ``job_error`` without poisoning any
cache.
"""

import gc
import json
import logging
import multiprocessing
import os
import socket
import sys
import threading
import time

import pytest

from repro.exec import ResultCache, run_job
from repro.serve import ServeClient, ServeConfig, job_to_wire, serve_in_thread
from repro.serve.protocol import encode, job_from_wire, outcome_to_wire

#: Two distinct cheap cells (trapez small) — the workhorse grid.
GRID = [
    job_to_wire("trapez", nkernels=2, unroll=1),
    job_to_wire("trapez", nkernels=2, unroll=2),
]


@pytest.fixture
def spawn():
    handles = []

    def _spawn(cache=None, unix=None, **kw):
        config_kw = dict(workers=1, lru_capacity=32)
        config_kw.update(kw)
        handle = serve_in_thread(
            config=ServeConfig(**config_kw), cache=cache, unix=unix
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


def test_overloaded_reply_instead_of_buffering(spawn):
    handle = spawn(max_queued_total=2, max_queued_per_tenant=2)
    with ServeClient(handle.address, tenant="greedy") as client:
        batch = client.submit([GRID[0]] * 3)  # 3 > global bound of 2
        assert batch.status == "overloaded"
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
    assert lru["capacity"] == 32 and lru["size"] == 1 and lru["inflight"] == 0
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


def test_vanished_client_costs_only_what_was_in_flight(spawn, tmp_path):
    """A client that disconnects after ``accepted``: its queued jobs are
    dropped at dispatch (``serve.client_aborts``), not simulated and
    encoded for nobody; nothing of them is cached, and the next tenant is
    served as if it had never been there."""
    jobs = [
        job_to_wire("trapez", nkernels=2, unroll=1, max_threads=64 + i)
        for i in range(12)
    ]
    cache = ResultCache(tmp_path)
    handle = spawn(cache=cache)  # one worker: at most two flights at once
    with socket.create_connection(handle.address) as sock, sock.makefile("rwb") as stream:
        sock.settimeout(60)
        stream.write(encode({"type": "hello", "tenant": "ghost"}))
        stream.write(encode({"type": "submit", "batch_id": "b", "jobs": jobs}))
        stream.flush()
        while json.loads(stream.readline())["type"] != "accepted":
            pass
    with ServeClient(handle.address, tenant="survivor") as client:
        deadline = time.monotonic() + 60
        while True:
            stats = client.stats()
            if stats["queue_depth"] == 0 and stats["lru"]["inflight"] == 0:
                break
            assert time.monotonic() < deadline, "scheduler did not drain"
            time.sleep(0.02)
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
