"""What a served hit costs: a lookup and a send.

What is a function of the job alone is computed once per job — an
outcome is encoded once per digest (the flight's value is the encoded
bytes), a wire job is resolved and digested once per distinct form, an
all-hit batch leaves in one write, and a client decodes an outcome once
per connection — and none of it may move a byte on the wire: a
``result`` line is ``protocol.result_line``'s splice and must equal
``encode(dict)``, and ``split_result_line`` is its inverse.
"""

import asyncio
import dataclasses
import hashlib
import json
import socket
import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.client as client_module
import repro.serve.server as server_module
from repro.exec import JobOutcome, run_job
from repro.exec.cache import spec_digest
from repro.serve import ServeClient
from repro.serve.protocol import (
    _JOB_DEFAULTS,
    WireError,
    decode,
    encode,
    job_from_wire,
    job_to_wire,
    outcome_from_wire,
    outcome_to_wire,
    result_line,
    split_result_line,
)
from tests.test_serve_protocol import wire_identity_jobs
from tests.test_serve_server import GRID, _BrokenCache, _peer, spawn  # noqa: F401

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
        "5b91c4d9be2fd5e156cc15a4fd0c83c4f4fdbbf3720f0cd5cf1b8c49e34b0626"
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


# -- (e) admission keys a job on its sorted items ------------------------------------

#: Values JSON can carry that compare (and hash) equal across types.
_EQUAL_VALUES = [(1, 1.0, True), (0, 0.0, False), (2, 2.0), (-1, -1.0)]


def _verdict(job):
    try:
        return spec_digest(job_from_wire(job))
    except WireError:
        return "refused"


@pytest.mark.parametrize("field", sorted(_JOB_DEFAULTS))
def test_equal_values_share_an_admission_key_and_a_resolution(field):
    """``1``, ``1.0`` and ``true`` are one memo key, so every field must
    coerce them to one spec or refuse them all."""
    for base in ({"bench": "trapez"}, {"bench": "trapez", "platform": "dist"}):
        if field in base:
            continue
        for values in _EQUAL_VALUES:
            jobs = [{**base, field: value} for value in values]
            assert len({server_module._job_key(job) for job in jobs}) == 1
            assert len({_verdict(job) for job in jobs}) == 1, (field, values)


def test_memo_serves_an_equal_job_its_first_resolution(spawn):
    handle = spawn()
    with ServeClient(handle.address) as client:
        first = client.submit([job_to_wire("trapez", nkernels=2, unroll=2)])
        again = client.submit([{"bench": "trapez", "nkernels": 2.0, "unroll": 2.0}])
        stats = client.stats()
    # ServeClient sends keys sorted; another client's order is its own
    job = {"unroll": 2, "nkernels": 2, "bench": "trapez"}
    assert server_module._job_key(job) == server_module._job_key(dict(sorted(job.items())))
    assert first.wire == again.wire
    assert stats["counters"]["serve.admission_memo_hits"] == 1
    assert stats["executed"] == 1


@pytest.mark.parametrize(
    "bad, text",
    [
        ({"bench": "trapez", "unroll": [1]}, "unhashable type: 'list'"),
        ({"bench": "trapez", "verify": {"a": 1}}, "unhashable type: 'dict'"),
        (["trapez"], "job must be an object"),
    ],
    ids=["list", "object", "not-an-object"],
)
def test_job_the_memo_cannot_key_is_refused_with_one_error(spawn, bad, text):
    handle = spawn()
    with socket.create_connection(handle.address, timeout=60) as sock, \
            sock.makefile("rwb") as stream:
        stream.write(encode({"type": "submit", "batch_id": "b", "jobs": [GRID[0], bad]}))
        stream.write(encode({"type": "stats"}))
        stream.flush()
        replies = [json.loads(stream.readline()) for _ in range(3)]
    assert [r["type"] for r in replies] == ["welcome", "error", "stats"]
    assert replies[1]["batch_id"] == "b" and text in replies[1]["message"]
    assert replies[2]["counters"].get("serve.admitted", 0) == 0


# -- (f) the client splits a result line and decodes its outcome once ----------------

@settings(max_examples=200, deadline=None)
@given(
    batch_id=_ANY_TEXT | st.sampled_from(['q"\\', "\x00\n\x1f", "\U0001f600é"]),
    index=st.integers(min_value=0, max_value=10**6),
    pick=st.integers(min_value=0, max_value=19),
)
def test_split_result_line_inverts_the_splice(batch_id, index, pick):
    outcome_line = encode(grid_outcomes()[pick])
    line = result_line(batch_id, index, outcome_line)
    assert split_result_line(line) == (batch_id, index, outcome_line)


_ONE = encode({"cycles": 1, "error": None, "record": None, "region_cycles": 1,
               "seq_cycles": None})


@pytest.mark.parametrize(
    "line",
    [
        encode({"type": "job_error", "batch_id": "b", "index": 0, "error": ["E", "m"]}),
        encode({"type": "batch_done", "batch_id": "b"}),
        encode({"type": "accepted", "batch_id": "b", "jobs": 1}),
        b'{"index":0,"batch_id":"b","outcome":%s,"type":"result"}\n' % _ONE[:-1],
        b'{"batch_id": "b", "index": 0, "outcome": %s, "type": "result"}\n' % _ONE[:-1],
        result_line("b", 30, _ONE).replace(b"30", b"3_0"),
        result_line("b", 3, _ONE).replace(b":3,", b": 3,"),
        result_line("b", 3, _ONE).replace(b":3,", b":03,"),
        result_line("b", 3, _ONE).replace(b":3,", b":-3,"),
        result_line("b", 3, _ONE).replace(b":3,", b":3.0,"),
        result_line("b", 3, _ONE)[:-1],
        result_line("b\x01", 3, _ONE).replace(b"\\u0001", b"\x01"),
        result_line("b", 3, _ONE).replace(b'"b"', b'"\\q"'),
    ],
    ids=["job_error", "batch_done", "accepted", "key-order", "spaced", "underscore",
         "space-index", "zero-padded", "negative", "float-index", "no-newline",
         "raw-control", "bad-escape"],
)
def test_split_result_line_refuses_every_other_line(line):
    assert split_result_line(line) is None


def test_split_result_line_refuses_a_line_past_the_bound(monkeypatch):
    line = result_line("b", 0, _ONE)
    monkeypatch.setattr("repro.serve.protocol.MAX_LINE_BYTES", len(line) - 1)
    assert split_result_line(line) is None


def _counting_decodes(monkeypatch):
    """Count the client's calls of ``outcome_from_wire``."""
    real = client_module.outcome_from_wire
    calls = []

    def wrapper(wire):
        calls.append(wire)
        return real(wire)

    monkeypatch.setattr(client_module, "outcome_from_wire", wrapper)
    return calls


def test_repeated_outcome_is_decoded_once_per_connection(spawn, monkeypatch):
    decodes = _counting_decodes(monkeypatch)
    handle = spawn()
    with ServeClient(handle.address) as client:
        first = client.submit(GRID)
        repeats = [client.submit(GRID) for _ in range(5)]
        info = client.decode_outcome.cache_info()
    # GRID's two unrolls build one program: equal outcomes, equal bytes
    distinct = len({encode(wire) for wire in first.wire.values()})
    assert len(decodes) == distinct == info.misses
    assert info.hits == 6 * len(GRID) - distinct
    for batch in repeats:  # one shared value per distinct outcome
        assert batch.ok and batch.wire == first.wire
        assert all(a is b for a, b in zip(batch.outcomes, first.outcomes))
    with ServeClient(handle.address) as client:  # a new connection decodes afresh
        assert client.submit(GRID).wire == first.wire
    assert len(decodes) == 2 * distinct


def test_the_outcome_memo_is_bounded(spawn, monkeypatch):
    monkeypatch.setattr(client_module, "OUTCOME_MEMO", 1)
    handle = spawn()
    with ServeClient(handle.address) as client:
        assert client.submit(GRID).ok
        info = client.decode_outcome.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    assert ServeClient.__init__.__defaults__ == ("",)  # no knob: a module constant


def _replaying_peer(outcomes, lines):
    """A peer answering every submit with one ``result`` per outcome (in
    encode's layout) and ``batch_done``; every line sent is kept."""
    def reply(line):
        message = json.loads(line)
        if message["type"] != "submit":
            return b""
        batch_id = message["batch_id"]
        sent = [result_line(batch_id, i, encode(o)) for i, o in enumerate(outcomes)]
        sent.append(encode({"type": "batch_done", "batch_id": batch_id}))
        lines.extend(sent)
        return b"".join(sent)

    return _peer(reply)


def test_memo_serves_what_decode_and_outcome_from_wire_give():
    outcomes = grid_outcomes()
    lines = []
    with _replaying_peer(outcomes, lines) as address, ServeClient(address) as client:
        batches = [client.submit(GRID[:1] * len(outcomes)) for _ in range(2)]
        info = client.decode_outcome.cache_info()
    distinct = len({encode(o) for o in outcomes})
    assert info.misses == distinct and info.hits == 2 * len(outcomes) - distinct
    for batch in batches:
        assert batch.ok
        for index, outcome in enumerate(outcomes):
            full = decode(lines[index])["outcome"]
            assert batch.wire[index] == full == outcome
            assert batch.outcomes[index] == outcome_from_wire(full)


def test_a_result_line_in_another_layout_is_decoded_in_full():
    """A peer that prints JSON its own way (spaces, its own key order)
    is still understood, line by line, without the memo."""
    def reply(line):
        message = json.loads(line)
        if message["type"] != "submit":
            return b""
        batch_id = message["batch_id"]
        lines = [
            {"type": "accepted", "batch_id": batch_id, "jobs": 2},
            {"type": "result", "index": 1, "batch_id": batch_id,
             "outcome": json.loads(_ONE)},
            {"type": "result", "batch_id": batch_id, "index": 0,
             "outcome": {**json.loads(_ONE), "cycles": 2}},
            {"type": "batch_done", "batch_id": batch_id},
        ]
        return b"".join(json.dumps(m).encode() + b"\n" for m in lines)

    seen = []
    with _peer(reply) as address, ServeClient(address) as client:
        batch = client.submit(GRID, on_result=lambda i, o: seen.append(i))
        assert client.decode_outcome.cache_info().misses == 0
    assert batch.ok and seen == [1, 0]
    assert [o.cycles for o in batch.outcomes] == [2, 1]
    assert batch.wire[1] == json.loads(_ONE)


def test_stale_result_lines_are_skipped_before_any_decode(monkeypatch):
    decodes = _counting_decodes(monkeypatch)
    stale_outcome = encode({**json.loads(_ONE), "cycles": 2})
    ids = []

    def reply(line):
        message = json.loads(line)
        if message["type"] != "submit":
            return b""
        ids.append(message["batch_id"])
        return b"".join(
            [result_line(earlier, 0, stale_outcome) for earlier in ids[:-1]]
            + [result_line(ids[-1], 0, _ONE),
               encode({"type": "batch_done", "batch_id": ids[-1]})]
        )

    with _peer(reply) as address, ServeClient(address) as client:
        batches = [client.submit(GRID[:1]) for _ in range(3)]
    assert [b.outcomes[0].cycles for b in batches] == [1, 1, 1]
    assert len(decodes) == 1


def test_oversized_result_line_still_raises_wire_error(monkeypatch):
    monkeypatch.setattr(client_module, "MAX_LINE_BYTES", 256)
    monkeypatch.setattr(client_module, "SOCKET_TIMEOUT", 10.0)
    padded = encode({**json.loads(_ONE), "pad": "x" * 300})

    def reply(line):
        message = json.loads(line)
        if message["type"] != "submit":
            return b""
        return result_line(message["batch_id"], 0, padded)

    with _peer(reply) as address:
        client = ServeClient(address)
        with pytest.raises(WireError, match="longer than 256 bytes"):
            client.submit(GRID[:1])
        client.close()


def test_result_line_cut_short_still_raises_wire_error():
    """The server ends the stream in the middle of a result line."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as stream:
            stream.write(encode({"type": "welcome", "server": "peer", "wire": 1}))
            stream.flush()
            batch_id = json.loads(stream.readline())["batch_id"]
            stream.write(result_line(batch_id, 0, _ONE)[:-1])
            stream.flush()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        client = ServeClient(listener.getsockname())
        with pytest.raises(WireError, match="cut short"):
            client.submit(GRID[:1])
        client.close()
    finally:
        listener.close()
        thread.join(30)
    assert not thread.is_alive()


def test_a_job_outcome_is_frozen():
    outcome = JobOutcome(1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        outcome.cycles = 2
