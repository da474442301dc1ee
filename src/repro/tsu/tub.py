"""Thread-to-Update Buffer (TUB).

"When a DThread completes its execution, its kernel inserts the
identifiers of its consumer DThreads in a shared unit named the Thread to
Update Buffer (TUB).  The TSU Emulator then reads the entries of the TUB
and decreases the Ready Counts of the corresponding consumer DThreads. ...
To avoid long idle periods the TUB is partitioned into segments.  When a
kernel writes into the TUB, it uses the first available segment using
try/lock, a non-blocking technique which locks an entity only if it is
available" (paper §4.2).

This implementation is used (with real locks) by the native threaded
backend only.  The DES adapter for TFluxSoft does not hold one: its
:class:`~repro.tsu.software.EmulatorShard` keeps a plain ``deque`` and
models segment contention with a capacity resource.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["TUBFullError", "ThreadUpdateBuffer"]

#: Try-lock passes one :meth:`ThreadUpdateBuffer.push` makes before it
#: gives up: a stalled emulator is diagnosed, not waited on forever.
MAX_SPINS = 1_000_000


class TUBFullError(RuntimeError):
    """All segments are locked or full — the producer must retry."""


@dataclass
class _Segment:
    capacity: int
    items: list = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def free(self) -> int:
        return self.capacity - len(self.items)


class ThreadUpdateBuffer:
    """Segmented completion-notification buffer with try-lock insertion.

    Each entry is ``(producer_kernel, local_iid)`` — "the identifiers of
    its consumer DThreads" are resolved by the emulator via the TKT, so
    the kernel only posts the completed thread.
    """

    def __init__(self, nsegments: int, segment_capacity: int = 64) -> None:
        if nsegments < 1 or segment_capacity < 1:
            raise ValueError("TUB needs >=1 segment of capacity >=1")
        self._segments = [_Segment(segment_capacity) for _ in range(nsegments)]
        self.nsegments = nsegments
        # Statistics (racy increments are acceptable: diagnostics only).
        self.pushes = 0
        self.push_retries = 0
        self.drains = 0

    def publish_counters(self, counters) -> None:
        scope = counters.scope("tub")
        scope.inc("pushes", self.pushes)
        scope.inc("retries", self.push_retries)
        scope.inc("drains", self.drains)

    # -- producer side (Kernels) ------------------------------------------------
    def try_push(
        self, item, preferred_segment: int = 0
    ) -> tuple[bool, int]:
        """One try-lock pass over the segments, starting at *preferred*.

        Returns ``(success, probes)`` where probes counts the segments
        examined; a failed pass means every segment was momentarily locked
        or full (the caller retries — the paper's "only one segment is
        locked by each kernel at any time point" discipline).
        """
        n = self.nsegments
        probes = 0
        for off in range(n):
            seg = self._segments[(preferred_segment + off) % n]
            probes += 1
            if not seg.lock.acquire(blocking=False):
                continue
            try:
                if seg.free > 0:
                    seg.items.append(item)
                    self.pushes += 1
                    return True, probes
            finally:
                seg.lock.release()
        return False, probes

    def push(self, item, preferred_segment: int = 0) -> int:
        """Insert, spinning over try-lock passes; returns retry count."""
        retries = 0
        for _ in range(MAX_SPINS):
            ok, _probes = self.try_push(item, preferred_segment)
            if ok:
                self.push_retries += retries
                return retries
            retries += 1
        raise TUBFullError("TUB insertion spun out (emulator stalled?)")

    # -- consumer side (TSU Emulator) ----------------------------------------------
    def drain(self) -> list:
        """Lock and empty every segment; returns the collected items."""
        collected: list = []
        for seg in self._segments:
            with seg.lock:
                if seg.items:
                    collected.extend(seg.items)
                    seg.items.clear()
        if collected:
            self.drains += 1
        return collected

    # -- introspection ------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(s.items) for s in self._segments)
