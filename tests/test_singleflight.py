"""Property, unit and stress tests for the shared single-flight LRU
(:mod:`repro.exec.singleflight`) — the one class behind both
``run_job``'s recorded-baseline memo and the server's job frontier.

What merging the two copies newly promises: one lock over LRU and flight
table (no second flight for a key resolved mid-claim, under threads),
eviction and ``clear()`` that leave flights alone, plus the LRU-vs-model
property and the exact-accounting test moved here from the serve tier.
The serve tier's other tests keep their names in
``tests/test_serve_lru.py``; ``test_baseline_memo_*`` in
``tests/test_exec_parallel.py`` cover the memo instance.
"""

import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import SingleFlightLRU

TIMEOUT = 30.0  # every blocking wait in this file is bounded


def lead(sf, key, value):
    """Lead a flight for *key* to completion (the key must be absent)."""
    fut, leader = sf.claim(key)
    assert leader
    sf.resolve(key, value)
    return fut


def run_threads(target, n):
    """Run *target(i)* on *n* threads under a short switch interval;
    re-raise the first worker failure."""
    errors = []

    def worker(i):
        try:
            target(i)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "worker hung"
    if errors:
        raise errors[0]


# -- the LRU side ----------------------------------------------------------------
_OPS = st.lists(
    st.tuples(st.sampled_from(["resolve", "reject"]), st.integers(0, 7)),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 5), ops=_OPS)
def test_lru_matches_reference_model(capacity, ops):
    """The cache tracks an ordered-dict reference model exactly: same
    contents, same eviction victims (so the same recency order), same
    counters.  Each op claims a key; a miss is led to a resolve or a
    reject, a hit must return the modelled value and refresh recency."""
    sf = SingleFlightLRU(capacity)
    model: OrderedDict = OrderedDict()
    hits = misses = evictions = 0
    for op, key in ops:
        fut, leader = sf.claim(key)
        if key in model:
            hits += 1
            model.move_to_end(key)
            assert not leader and fut.result(timeout=0) == model[key]
        else:
            misses += 1
            assert leader and not fut.done()
            if op == "resolve":
                sf.resolve(key, key * 10)
                model[key] = key * 10
                while len(model) > capacity:
                    model.popitem(last=False)
                    evictions += 1
            else:
                sf.reject(key, KeyError(key))
                assert isinstance(fut.exception(timeout=0), KeyError)
        assert len(sf) == len(model) <= capacity
        assert [k for k in range(8) if k in sf] == sorted(model)
        assert sf.inflight == 0
        assert (sf.hits, sf.misses, sf.evictions) == (hits, misses, evictions)


# -- the single-flight side ------------------------------------------------------
def test_claim_never_relaunches_a_resolved_key():
    """Threads racing claim against resolve over many keys: a key is
    launched exactly once, however a claim interleaves with the leader's
    resolve — the LRU is consulted under the flight table's lock.  (A
    claim that checks the LRU and the flight table in two critical
    sections launches a handful of second flights in this run.)"""
    nthreads, nkeys = 8, 10_000
    sf = SingleFlightLRU(nkeys)

    def sweep(_):
        for key in range(nkeys):  # same order everywhere: maximal contention
            fut, leader = sf.claim(key)
            if leader:
                sf.resolve(key, key * 10)
            assert fut.result(timeout=TIMEOUT) == key * 10

    run_threads(sweep, nthreads)
    assert sf.launched == nkeys
    assert sf.hits + sf.coalesced == (nthreads - 1) * nkeys
    assert sf.inflight == 0 and len(sf) == nkeys and sf.evictions == 0


def test_sync_primitives_exact_accounting():
    """claim/resolve/reject keep inflight exact — the server's
    max-in-flight bound is computed from this number."""
    sf = SingleFlightLRU(2)
    futa, leada = sf.claim("a")
    futa2, leada2 = sf.claim("a")
    assert leada and not leada2 and futa is futa2
    futb, leadb = sf.claim("b")
    assert leadb
    assert sf.inflight == 2  # unique keys, not claims
    sf.resolve("a", 1)
    assert sf.inflight == 1
    assert futa.result(timeout=0) == 1
    sf.reject("b", ValueError("x"))
    assert sf.inflight == 0
    with pytest.raises(ValueError):
        futb.result(timeout=0)
    stats = sf.stats()
    assert stats["launched"] == 2 and stats["coalesced"] == 1
    assert stats["size"] == 1  # only the resolved key landed in the LRU
    with pytest.raises(KeyError):
        sf.resolve("a", 2)  # no flight to complete: a caller bug, loudly


def test_capacity_bound_and_clear_leave_flights_alone():
    """Eviction and clear() govern resolved values only: a flight in
    progress survives both and still reaches its waiters."""
    sf = SingleFlightLRU(2)
    flight, leader = sf.claim("slow")
    assert leader
    for key in ("a", "b", "c"):
        lead(sf, key, key.upper())
    assert len(sf) == 2 and sf.evictions == 1 and "a" not in sf
    assert sf.inflight == 1 and not flight.done()
    sf.clear()
    assert len(sf) == 0 and sf.inflight == 1
    joined, leader = sf.claim("slow")
    assert not leader and joined is flight
    sf.resolve("slow", "done")
    assert joined.result(timeout=0) == "done" and "slow" in sf
