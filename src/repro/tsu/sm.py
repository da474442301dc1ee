"""Synchronization Memory (SM).

"The Ready Count values are stored in a data structure named
Synchronization Memory (SM).  One such structure exists for each kernel"
(paper §4.2).  An SM holds the :class:`ThreadEntry` of every DThread
instance assigned to its kernel — the Ready Count and the retirement
flags — plus that kernel's ready queue.  It does not hold the arcs: they
stay on the loaded :class:`~repro.core.block.DDMBlock`, and the TKT says
whose SM a consumer's Ready Count lives in.  Every ``raise`` below is a
fault check (Ready Count underflow, duplicate load, double completion,
completion with a pending count) and stays beside the state it guards.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from repro.core.dthread import DThreadInstance

__all__ = ["ThreadEntry", "SynchronizationMemory"]


@dataclass
class ThreadEntry:
    """Per-instance TSU state (one Synchronization Graph node's Ready
    Count and flags, loaded by the block's Inlet DThread)."""

    local_iid: int
    instance: DThreadInstance
    ready_count: int
    completed: bool = False
    #: Squashed: every input arc died (unchosen conditional branches /
    #: squashed producers).  The entry never fires; it is retired at
    #: squash time and counts toward block completion.  Its Ready Count
    #: is frozen — decrements from producers that still complete no-op.
    squashed: bool = False

    def decrement(self) -> bool:
        """Post-processing step: one producer completed.  True if now ready."""
        if self.ready_count <= 0:
            raise RuntimeError(
                f"ready count underflow for {self.instance.name} "
                "(duplicate completion notification?)"
            )
        self.ready_count -= 1
        return self.ready_count == 0


class SynchronizationMemory:
    """One kernel's slice of TSU state: entries + the ready queue.

    The ready queue is a min-heap on the local instance id.  Local ids are
    dense in (template, context) order, so popping the smallest id hands a
    kernel consecutive contexts of the same template back-to-back — the
    "maximise spatial locality" selection policy of §3.1 in its simplest
    effective form.
    """

    def __init__(self, kernel_id: int) -> None:
        self.kernel_id = kernel_id
        self._entries: dict[int, ThreadEntry] = {}
        self._ready: list[int] = []

    # -- loading (Inlet) ------------------------------------------------------
    def load(self, entry: ThreadEntry) -> None:
        if entry.local_iid in self._entries:
            raise KeyError(f"duplicate load of instance {entry.local_iid}")
        self._entries[entry.local_iid] = entry
        # A pre-squashed entry (squash-at-load: the branch resolved while
        # an earlier block ran) never joins the ready queue, even at
        # Ready Count zero (its dead arcs may all be cross-block).
        if entry.ready_count == 0 and not entry.squashed:
            heapq.heappush(self._ready, entry.local_iid)

    def clear(self) -> None:
        """Outlet: deallocate all TSU resources of the finished block."""
        self._entries.clear()
        self._ready.clear()

    # -- scheduling ---------------------------------------------------------
    def pop_ready(self) -> Optional[ThreadEntry]:
        if not self._ready:
            return None
        return self._entries[heapq.heappop(self._ready)]

    def peek_ready(self) -> int:
        """Depth of the ready queue: truthy when a pop would succeed, and
        what a stealing kernel compares victims by."""
        return len(self._ready)

    # -- post-processing ---------------------------------------------------
    def decrement(self, local_iid: int) -> bool:
        """Decrement one entry's Ready Count; enqueue if it became ready.

        Squashed entries absorb the update without state change: the
        producer's data has nowhere to go, and the entry was already
        retired when its last live input died.
        """
        entry = self._entries[local_iid]
        if entry.squashed:
            return False
        became_ready = entry.decrement()
        if became_ready:
            heapq.heappush(self._ready, local_iid)
        return became_ready

    def mark_completed(self, local_iid: int) -> None:
        entry = self._entries[local_iid]
        if entry.completed:
            raise RuntimeError(f"instance {local_iid} completed twice")
        if entry.ready_count != 0:
            raise RuntimeError(
                f"instance {local_iid} completed with ready count "
                f"{entry.ready_count}"
            )
        entry.completed = True

    def squash(self, local_iid: int) -> None:
        """Retire an entry whose every input arc died (never fires).

        Marks it squashed *and* completed in one step; the caller counts
        it toward block completion and phantom-decrements its consumers.
        """
        entry = self._entries[local_iid]
        if entry.completed or entry.squashed:
            raise RuntimeError(
                f"instance {local_iid} squashed after completing/squashing"
            )
        entry.squashed = True
        entry.completed = True
