"""What a served hit costs: a lookup and a send.

What is a function of the job alone is computed once per job — an
outcome is encoded once per digest (the flight's value is the encoded
bytes), a wire job is resolved and digested once per distinct form, an
all-hit batch leaves in one write — and none of it may move a byte on the
wire: a ``result`` line is ``protocol.result_line``'s splice and must
equal ``encode(dict)``.
"""

import asyncio
import hashlib
import json
import socket
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.server as server_module
from repro.exec import run_job
from repro.serve import ServeClient
from repro.serve.protocol import (
    encode,
    job_from_wire,
    job_to_wire,
    outcome_to_wire,
    result_line,
)
from tests.test_serve_protocol import wire_identity_jobs
from tests.test_serve_server import GRID, _BrokenCache, spawn  # noqa: F401

#: Six distinct cheap cells: one hit batch of the shape ``serve_mix`` sends.
SIX = [
    job_to_wire("trapez", nkernels=2, unroll=1, max_threads=64 + i)
    for i in range(6)
]


# -- (a) the splice is encode(dict), byte for byte -------------------------------

@lru_cache(maxsize=None)
def grid_outcomes():
    """Wire outcomes of the QSORT slice of the 196-job grid at size small
    (the whole grid is minutes of simulation): every platform, records
    with per-kernel lists, a ``None`` record (sequential mode), dist
    topology strings, floats — and the two compositions ``dist`` refuses,
    captured as error outcomes."""
    outcomes = []
    for job in wire_identity_jobs():
        if job["bench"] == "qsort" and job.get("size", "small") == "small":
            spec = job_from_wire({**job, "capture_errors": True})
            outcomes.append(outcome_to_wire(run_job(spec)))
    assert len(outcomes) == 20
    assert any(o["error"] for o in outcomes)
    assert any(o["record"] is None for o in outcomes)
    assert any(o["record"] and o["record"]["kernels"] for o in outcomes)
    return outcomes


#: Any text a decoded ``batch_id`` can hold, lone surrogates included.
_ANY_TEXT = st.text(st.characters(exclude_categories=()))


@settings(max_examples=200, deadline=None)
@given(
    batch_id=_ANY_TEXT | st.sampled_from(['q"\\', "\x00\n\x1f", "\U0001f600é"]),
    index=st.integers(min_value=0, max_value=10**6),
    pick=st.integers(min_value=0, max_value=19),
)
def test_spliced_result_line_equals_encode(batch_id, index, pick):
    outcome = grid_outcomes()[pick]
    assert result_line(batch_id, index, encode(outcome)) == encode(
        {"type": "result", "batch_id": batch_id, "index": index, "outcome": outcome}
    )


# -- (b) once per unique job, never for a failure --------------------------------

def _counting(monkeypatch, name):
    """Count the server's calls of its imported *name*."""
    real = getattr(server_module, name)
    calls = []

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(server_module, name, wrapper)
    return calls


def test_fifty_hit_batches_encode_and_digest_once_per_unique_job(spawn, monkeypatch):
    encodes = _counting(monkeypatch, "outcome_to_wire")
    digests = _counting(monkeypatch, "spec_digest")
    resolves = _counting(monkeypatch, "job_from_wire")
    handle = spawn()
    bad = [GRID[0], {"bench": "trapez", "unroll": 0}]
    with ServeClient(handle.address) as client:
        first_refusal = client.submit(bad)
        wires = [client.submit(GRID).wire for _ in range(51)]
        last_refusal = client.submit(bad)
        stats = client.stats()
    assert all(wire == wires[0] for wire in wires)
    assert len(encodes) == len(digests) == len(GRID)
    # A refused job is never memoised: each submission decodes it afresh
    # and gets the same reply.
    assert len(resolves) == len(GRID) + 2
    assert first_refusal.status == last_refusal.status == "error"
    assert first_refusal.message == last_refusal.message == "unroll must be >= 1, got 0"
    counters = stats["counters"]
    assert counters["serve.encoded"] == len(GRID)
    # GRID[0] resolved (and was kept) in the first refused batch.
    assert counters["serve.admission_memo_hits"] == 50 * len(GRID) + 2
    assert counters["serve.admitted"] == 51 * len(GRID)


def test_job_error_is_neither_encoded_nor_cached(spawn, monkeypatch):
    encodes = _counting(monkeypatch, "outcome_to_wire")
    handle = spawn(cache=_BrokenCache())
    with ServeClient(handle.address) as client:
        assert client.submit(GRID).errors.keys() == {0, 1}
        assert client.submit(GRID).errors.keys() == {0, 1}
        stats = client.stats()
    assert not encodes
    assert "serve.encoded" not in stats["counters"]
    assert stats["lru"]["size"] == 0
    # The jobs themselves resolved: that memo holds specs, not results.
    assert stats["counters"]["serve.admission_memo_hits"] == len(GRID)


# -- (c) a whole session, as bytes -------------------------------------------------

def _session(address):
    """Two batches over a raw socket (the second's ``batch_id`` needs
    escaping and all its jobs are hits); every line received."""
    lines = []
    with socket.create_connection(address) as sock, sock.makefile("rwb") as stream:
        sock.settimeout(60)

        def read_until(mtype):
            while True:
                line = stream.readline()
                assert line, "server closed the connection"
                lines.append(line)
                if json.loads(line)["type"] == mtype:
                    return

        read_until("welcome")
        stream.write(encode({"type": "hello", "tenant": "raw"}))
        for batch_id, jobs in (("b1", GRID), ('q"\\2', GRID[::-1] + GRID)):
            stream.write(
                encode({"type": "submit", "batch_id": batch_id, "jobs": jobs})
            )
            stream.flush()
            read_until("batch_done")
        stream.write(encode({"type": "bye"}))
        stream.flush()
        assert stream.readline() == b""
    return lines


def session_digest(lines):
    """SHA-256 of the session's line *set* (results arrive in completion
    order) with the one host-dependent field zeroed."""
    scrubbed = []
    for line in lines:
        message = json.loads(line)
        record = (message.get("outcome") or {}).get("record")
        if record:
            record["wall_seconds"] = 0.0
        scrubbed.append(encode(message))
    return hashlib.sha256(b"".join(sorted(scrubbed))).hexdigest()


def test_raw_session_lines_are_canonical_and_unchanged(spawn):
    """Every line on the wire is ``encode`` of its own decoding, and the
    session hashes to the pinned value.  Like the 196-job digest this
    covers simulated cycles and the records' ``engine.*`` counters: a
    change that moves either on purpose re-pins it by printing
    ``session_digest(_session(address))``, after decoding both sessions
    to show which record fields moved.
    """
    lines = _session(spawn().address)
    assert len(lines) == 1 + (1 + 2 + 1) + (1 + 4 + 1)  # welcome, two batches
    for line in lines:
        assert line == encode(json.loads(line))
    assert session_digest(lines) == (
        "892dfcfa28a4f9633042aadcd0e2785a049a33599d016699649042659baac8a9"
    )


# -- (d) one write per hit batch ---------------------------------------------------

def test_hit_batch_leaves_in_one_write(spawn, monkeypatch):
    writes = []
    real_write = asyncio.StreamWriter.write

    def write(self, data):
        writes.append(bytes(data))
        real_write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", write)
    handle = spawn()
    with ServeClient(handle.address) as client:
        assert client.submit(SIX).ok
        before = client.stats()["counters"]["serve.writes"]
        del writes[:]
        assert client.submit(SIX).ok  # six LRU hits
        counted = client.stats()["counters"]["serve.writes"] - before
    # accepted, six results and batch_done together; the last write is
    # the second stats reply, and the first one's was counted after it
    # read `before`.
    batch_write, stats_reply = writes
    lines = [json.loads(line) for line in batch_write.splitlines()]
    assert [m["type"] for m in lines] == (
        ["accepted"] + ["result"] * len(SIX) + ["batch_done"]
    )
    assert json.loads(stats_reply)["type"] == "stats"
    assert counted == 2
