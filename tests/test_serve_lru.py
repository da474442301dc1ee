"""The serve tier's LRU + single-flight behaviours, on the shared class.

``repro/serve/lru.py`` is gone: the server's job frontier is an instance
of :class:`repro.exec.SingleFlightLRU`, the class ``run_job``'s
recorded-baseline memo also uses.  These are the tests that pinned the serve
tier's copy, ported onto ``claim``/``resolve``/``reject`` under their
original names (``put`` is a led flight, ``get`` a claim of a cached
key, asyncio tasks are real threads); what the merge newly promises is
in ``tests/test_singleflight.py``.
"""

import threading

import pytest

from repro.exec import SingleFlightLRU
from tests.test_singleflight import TIMEOUT, lead, run_threads


# -- the LRU side ----------------------------------------------------------------
def test_capacity_validated():
    with pytest.raises(ValueError):
        SingleFlightLRU(0)


def test_get_put_and_counters():
    sf = SingleFlightLRU(2)
    lead(sf, "a", 1)  # a miss that launches
    fut, leader = sf.claim("a")
    assert not leader and fut.done() and fut.result() == 1
    assert (sf.hits, sf.misses, sf.evictions) == (1, 1, 0)


def test_eviction_is_strict_lru():
    sf = SingleFlightLRU(2)
    lead(sf, "a", 1)
    lead(sf, "b", 2)
    sf.claim("a")  # refresh: "b" is now least recent
    lead(sf, "c", 3)
    assert "b" not in sf
    assert "a" in sf and "c" in sf
    assert sf.evictions == 1


def test_contains_does_not_refresh():
    sf = SingleFlightLRU(2)
    lead(sf, "a", 1)
    lead(sf, "b", 2)
    assert "a" in sf  # probe only
    lead(sf, "c", 3)  # "a" must still be the eviction victim
    assert "a" not in sf and "b" in sf


# -- the single-flight side ------------------------------------------------------
def test_single_flight_n_concurrent_one_compute():
    """N threads claim one missing key: exactly one leads, and all N
    observe the value it resolves."""
    n = 16
    sf = SingleFlightLRU(8)
    everyone_claimed = threading.Barrier(n, timeout=TIMEOUT)
    leaders = []
    seen = []

    def claimer(i):
        fut, leader = sf.claim("k")
        everyone_claimed.wait()  # so the other N-1 all joined the flight
        if leader:
            leaders.append(i)
            assert sf.inflight == 1
            sf.resolve("k", "value")
        seen.append(fut.result(timeout=TIMEOUT))

    run_threads(claimer, n)
    assert len(leaders) == 1
    assert seen == ["value"] * n
    assert sf.launched == 1 and sf.coalesced == n - 1
    assert sf.inflight == 0
    # Later claims are plain LRU hits: a done future, no new flight.
    fut, leader = sf.claim("k")
    assert not leader and fut.done() and fut.result() == "value"
    assert sf.launched == 1 and sf.hits == 1


def test_failed_flight_propagates_and_is_not_cached():
    """reject wakes every blocked waiter with the leader's exception,
    caches nothing, and the next claim leads a fresh flight."""
    sf = SingleFlightLRU(8)
    fut, leader = sf.claim("k")
    assert leader
    joined = threading.Barrier(4, timeout=TIMEOUT)
    raised = []

    def waiter(i):
        waiting, is_leader = sf.claim("k")
        assert not is_leader and waiting is fut
        joined.wait()
        with pytest.raises(RuntimeError, match="sim failed"):
            waiting.result(timeout=TIMEOUT)
        raised.append(i)

    def main(i):
        if i:
            return waiter(i)
        joined.wait()  # all three joined the flight before it fails
        sf.reject("k", RuntimeError("sim failed"))

    run_threads(main, 4)
    assert sorted(raised) == [1, 2, 3]
    assert sf.launched == 1 and sf.coalesced == 3
    assert "k" not in sf and len(sf) == 0 and sf.inflight == 0
    retry, leader = sf.claim("k")  # failure never cached, so retry leads
    assert leader and retry is not fut
    sf.resolve("k", 42)
    assert sf.claim("k")[0].result() == 42
