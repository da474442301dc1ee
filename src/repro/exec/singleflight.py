"""Single-flight coalescing over a bounded LRU — the one copy.

Two tiers need the same primitive: :func:`repro.exec.pool.run_job`
records each §5 sequential baseline's program once per process
(``_TRACE_MEMO``, keyed by the program), and
:class:`repro.serve.server.TFluxServer` answers a thundering herd of
identical job specs with one simulation (keyed by
:func:`~repro.exec.cache.spec_digest`).  Both need the same three
guarantees, so both hold an instance of :class:`SingleFlightLRU`:

* **one flight per key** — the first :meth:`~SingleFlightLRU.claim` of a
  missing key is the *leader* (it must later
  :meth:`~SingleFlightLRU.resolve` or :meth:`~SingleFlightLRU.reject`
  it); every other claimer gets the same future;
* **bounded memory** — resolved values live in a strict LRU
  (a claim refreshes recency) of at most *capacity* entries;
* **failures are never cached** — a rejected flight raises in every
  coalesced waiter and the next claim leads a fresh one.

Entries are ``concurrent.futures.Future`` objects, so a waiter on any
thread blocks on ``result()`` and an event-loop caller attaches a done
callback (which runs on the resolving thread — the loop thread, for the
server).  The flight table and the LRU share one lock: a key resolved
between a caller's miss and its claim comes back as an already-done
future, never as a second flight.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Hashable

__all__ = ["SingleFlightLRU"]


class SingleFlightLRU:
    """Thread-safe bounded LRU whose misses coalesce onto one flight.

    Counters (``hits``/``misses``/``evictions``/``coalesced``/
    ``launched``) are plain ints, published by the owner (the convention
    of :mod:`repro.obs`).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: Resolved keys, least- to most-recently claimed.
        self._done: "OrderedDict[Hashable, Future]" = OrderedDict()
        self._flights: dict[Hashable, Future] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Claims that joined an existing flight instead of launching one.
        self.coalesced = 0
        #: Flights actually launched (leader claims).
        self.launched = 0

    def claim(self, key: Hashable) -> tuple[Future, bool]:
        """The shared future for *key* and whether the caller leads it.

        A cached key returns its done future (recency refreshed); a key
        in flight returns that flight's future; otherwise the caller
        opens the flight and owns its completion.
        """
        with self._lock:
            fut = self._done.get(key)
            if fut is not None:
                self._done.move_to_end(key)
                self.hits += 1
                return fut, False
            self.misses += 1
            fut = self._flights.get(key)
            if fut is not None:
                self.coalesced += 1
                return fut, False
            fut = self._flights[key] = Future()
            self.launched += 1
            return fut, True

    def resolve(self, key: Hashable, value: object) -> None:
        """Leader completed: cache *value* and wake every waiter."""
        with self._lock:
            fut = self._flights.pop(key)
            self._done[key] = fut
            while len(self._done) > self.capacity:
                self._done.popitem(last=False)
                self.evictions += 1
        fut.set_result(value)  # waiters and callbacks run outside the lock

    def reject(self, key: Hashable, exc: BaseException) -> None:
        """Leader failed: propagate to waiters, cache nothing."""
        with self._lock:
            fut = self._flights.pop(key)
        fut.set_exception(exc)

    def clear(self) -> None:
        """Forget every resolved value; flights in progress are untouched."""
        with self._lock:
            self._done.clear()

    @property
    def inflight(self) -> int:
        """Number of keys currently being computed."""
        with self._lock:
            return len(self._flights)

    def __len__(self) -> int:
        with self._lock:
            return len(self._done)

    def __contains__(self, key: Hashable) -> bool:
        """Non-refreshing membership probe (recency order untouched)."""
        with self._lock:
            return key in self._done

    def stats(self) -> dict[str, int]:
        """A plain snapshot for stats replies and tests."""
        with self._lock:
            return {
                "size": len(self._done),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "inflight": len(self._flights),
                "coalesced": self.coalesced,
                "launched": self.launched,
            }
