"""SPE mailboxes.

Each SPE has a small inbound mailbox the PPE writes to; the SPE blocks on
a read until a message arrives.  TFluxCell uses it for the TSU Emulator's
"here is your next DThread" notifications (§4.3).  Modelled as a bounded
FIFO with a fixed PPE→SPE delivery latency on the DES.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.sim.engine import Engine, Event

__all__ = ["Mailbox"]

#: Messages an SPE inbound mailbox holds.
MAILBOX_DEPTH = 4


class Mailbox:
    """Bounded FIFO with delivery latency (one per SPE)."""

    def __init__(self, engine: Engine, latency: int = 100) -> None:
        self.engine = engine
        self.latency = latency
        self._items: deque[Any] = deque()
        self._reader: Optional[Event] = None
        self.messages = 0
        self.blocked_reads = 0

    def send(self, value: Any) -> None:
        """PPE side: deliver *value* after the mailbox latency.

        Raises on overflow — the TFluxCell protocol never has more than
        one outstanding reply per SPE, so overflow indicates a bug.
        """

        def deliver(_):
            if len(self._items) >= MAILBOX_DEPTH:
                raise OverflowError("SPE mailbox overflow")
            self._items.append(value)
            self.messages += 1
            if self._reader is not None and not self._reader.triggered:
                self._reader.succeed()
                self._reader = None

        self.engine._schedule(self.latency, deliver, None)

    def receive(self) -> Generator:
        """SPE side: block until a message is available, then pop it."""
        while not self._items:
            self.blocked_reads += 1
            self._reader = Event(self.engine, name="mbox-read")
            yield self._reader
        return self._items.popleft()
