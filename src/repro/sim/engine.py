"""Discrete-event simulation core.

A minimal but complete DES kernel in the style of SimPy, tailored to the
needs of the TFlux platform models: cycle-granularity virtual time,
generator-based processes, one-shot events, and FIFO capacity resources
(used for the system bus arbiter, the hardware TSU command port, the TSU
emulator core, Cell mailboxes and the DMA engine).

Processes are plain Python generators.  A process may ``yield``:

* an ``int`` — advance this process by that many cycles;
* an :class:`Event` — suspend until the event is triggered (the ``yield``
  expression evaluates to ``None``: events carry no value);
* a :class:`Resource` — queue for one of its slots, after
  :meth:`Resource.take` found none free; the process resumes holding the
  slot (the ``yield`` evaluates to ``None``).

An event has at most one waiter, which must arrive before the event
triggers.  Yielding anything else, a second waiter and a late one each
raise :class:`SimulationError` out of :meth:`Engine.run`.

Models say "hold this resource for N cycles" (``yield from
resource.hold(n)``), and a hold has one protocol: a slot granted on the
spot is not an event, so an uncontended hold is the caller's one
timeout, and a request that has to queue parks its process on the
resource, whose ``release()`` pushes the process's resume at the
release's cycle: one callback, and no grant event is built.  There is
no second mode: every model, the MMI included (:mod:`repro.sim.mmi`,
which runs its slots in one frame through the same :meth:`Resource.take`
rule), runs its protocol step by step.

Example
-------
>>> eng = Engine()
>>> woken = []
>>> def pinger(eng, ev):
...     yield 10
...     ev.succeed()
>>> def ponger(eng, ev):
...     yield ev
...     woken.append(eng.now)
>>> ev = eng.event()
>>> eng.process(pinger(eng, ev))
<Process 'pinger' alive>
>>> p = eng.process(ponger(eng, ev))
>>> eng.run()
>>> woken, p.is_alive
([10.0], False)
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Resource",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation kernel.

    Examples include triggering an already-triggered event or running an
    engine whose event queue contains an item scheduled in the past.
    """


class Event:
    """A one-shot event that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` triggers it
    exactly once, resuming its waiter (if any) at the current simulation
    time.  It is a bare wake-up: no model reads a value off an event,
    so it carries none.
    """

    __slots__ = ("engine", "triggered", "_waiter", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self.triggered = False
        self._waiter: Optional[Callable[["Event"], None]] = None

    # -- triggering ------------------------------------------------------
    def succeed(self) -> "Event":
        """Trigger the event, waking its waiter."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        cb, self._waiter = self._waiter, None
        if cb is not None:
            # Deliver on the engine queue so resumption order is
            # deterministic and never re-entrant.
            self.engine._schedule(0.0, cb, self)
        return self

    # -- waiting ---------------------------------------------------------
    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register *cb*, the event's one waiter, to run once triggered."""
        if self.triggered:
            raise SimulationError(f"late waiter: event {self.name!r} already triggered")
        if self._waiter is not None:
            raise SimulationError(f"second waiter: event {self.name!r} already has one")
        self._waiter = cb

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Process:
    """A running simulation process wrapping a generator.

    The process's :attr:`done` event triggers when the generator returns
    (its return value is dropped: events carry none).  Yielding inside
    the generator follows the protocol documented in the module
    docstring.
    """

    __slots__ = ("engine", "gen", "done", "name", "_callback")

    def __init__(self, engine: "Engine", gen: Generator, name: str = "") -> None:
        self.engine = engine
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Event(engine, name=f"done:{self.name}")
        # Bound once: every timer and wait of this process reuses it.  It
        # is a cycle (process -> bound method -> process), so _finish and
        # Engine.clear drop it.
        self._callback: Optional[Callable[[Any], None]] = self._resume
        engine._live.add(self)
        engine._schedule(0.0, self._callback, None)

    @property
    def is_alive(self) -> bool:
        return not self.done.triggered

    def _resume(self, _: Any) -> None:
        # A timer expiry, a grant and an event all resume with None.
        try:
            target = self.gen.send(None)
        except StopIteration:
            self._finish()
            return
        if type(target) is int:  # plain cycle delay: pushed here, no hop
            if target < 0:
                raise SimulationError(f"negative delay {target!r}")
            engine = self.engine
            engine._seq = seq = engine._seq + 1
            heapq.heappush(
                engine._heap, (engine.now + target, seq, self._callback, None)
            )
        else:
            self._dispatch(target)

    def _finish(self) -> None:
        self.engine._live.discard(self)
        self._callback = None
        self.done.succeed()

    def _dispatch(self, target: Any) -> None:
        """Suspend on a yielded target that is not a delay: an event, or
        a resource's queue (its ``release()`` resumes the process)."""
        if isinstance(target, Resource):
            target._queue.append(self._callback)
        elif isinstance(target, Event):
            target.add_callback(self._callback)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {target!r}"
            )

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {state}>"


class Resource:
    """FIFO capacity resource (bus arbiter, TSU port, emulator core...).

    Models occupy a slot with ``yield from resource.hold(cycles)``: a
    free slot taken on the spot (:meth:`take`), or else a wait in the
    queue, then the hold's cycles, then the holder's own ``release()``.
    A queued request is its process's bound resume, and ``release()``
    pushes the longest waiter's at the current cycle.  Grant order is
    strictly FIFO, which models the paper's bus arbiter behaviour and
    keeps simulations deterministic.
    """

    __slots__ = ("engine", "capacity", "_in_use", "_queue", "name")

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        # deque: grants pop from the head on every release, and the bus
        # arbiter queue grows to O(kernels) under contention — list.pop(0)
        # made release O(n) on exactly the hottest simulations.
        self._queue: deque[Callable[[Any], None]] = deque()

    def take(self) -> bool:
        """The take-or-queue rule: take a free slot on the spot (True), or
        return False, and the caller then queues by yielding this resource.

        A free slot never jumps the queue: with waiters queued, the
        caller queues behind them.  A slot taken on the spot is not an
        event: the caller goes on in the same callback.
        """
        if self._queue or self._in_use >= self.capacity:
            return False
        self._in_use += 1
        return True

    def acquire(self) -> Generator["Resource", Any, None]:
        """Take a slot, suspending only if the request has to queue.

        Process fragment (``yield from resource.acquire()``), paired with
        one :meth:`release`: :meth:`take`, or a wait in the queue.
        """
        if not self.take():
            yield self

    def hold(self, cycles: float) -> Generator[Any, Any, float]:
        """Occupy one slot for *cycles*; returns the cycles spent queued.

        Process fragment (``queued = yield from resource.hold(n)``):
        :meth:`acquire`, the caller's timeout, the caller's ``release()``.
        An uncontended hold is that one timeout; its free slot is taken
        here, without starting an ``acquire()`` generator.
        """
        if cycles < 0:
            raise SimulationError(
                f"negative hold {cycles!r} on resource {self.name!r}"
            )
        if self.take():
            queued = 0.0
        else:
            engine = self.engine
            queued_at = engine.now
            yield from self.acquire()
            queued = engine.now - queued_at
        try:
            yield cycles
        finally:
            self.release()
        return queued

    def release(self) -> None:
        """Free a slot, granting it to the longest-waiting requester: its
        resume is pushed at the current cycle, behind what is already due."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            engine = self.engine
            engine._seq = seq = engine._seq + 1
            heapq.heappush(
                engine._heap, (engine.now, seq, self._queue.popleft(), None)
            )
        else:
            self._in_use -= 1


class Engine:
    """The simulation kernel: virtual clock plus an event heap.

    Time is a float but all TFlux models use integral CPU cycles.  The heap
    is keyed on ``(time, sequence)`` so same-time callbacks run in schedule
    order, making every simulation deterministic.
    """

    __slots__ = ("now", "_heap", "_seq", "_nevents", "_live")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable, Any]] = []
        self._seq = 0
        self._nevents = 0
        #: Processes started and not yet returned (see :meth:`clear`).
        self._live: set[Process] = set()

    @property
    def events_scheduled(self) -> int:
        """Total heap pushes so far (diagnostic; ``_seq`` is the push count)."""
        return self._seq

    # -- factory helpers --------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event], name: str = "all_of") -> Event:
        """Event that triggers once every one of *events* (at least one,
        each pending and unwaited) has triggered."""
        events = list(events)
        if not events:
            # Nothing would ever trigger the result: its waiter would hang
            # until the run reported a stall.
            raise SimulationError(f"{name!r}: all_of needs at least one event")
        combined = Event(self, name=name)
        left = len(events)

        def cb(_: Event) -> None:
            nonlocal left
            left -= 1
            if left == 0:
                combined.succeed()

        for ev in events:
            ev.add_callback(cb)
        return combined

    # -- scheduling --------------------------------------------------------
    def _schedule(self, delay: float, cb: Callable, arg: Any) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, cb, arg))

    def run(self) -> None:
        """Run until the heap drains."""
        heap = self._heap
        pop = heapq.heappop
        dispatched = 0
        try:
            while heap:
                t, _seq, cb, arg = pop(heap)
                if t < self.now:
                    raise SimulationError("event scheduled in the past")
                self.now = t
                dispatched += 1
                cb(arg)
        finally:
            self._nevents += dispatched

    def clear(self) -> None:
        """End the run: close every unfinished process, drop the heap.

        After a run in which every process returned there is nothing to
        clear.  After one that raised or stalled, processes are still
        suspended, on the heap (which holds them while each holds this
        engine) or on events and resource queues that will never fire
        (whose owners the waiting generators hold).  Either is a cycle
        that keeps the whole simulation alive until the cycle collector
        runs.  Closing a generator runs its ``finally`` (a
        :meth:`Resource.hold` releasing its slot may push a waiter's
        resume), so the heap goes last.
        """
        live = self._live
        while live:
            proc = live.pop()
            proc.gen.close()
            proc._callback = None
        self._heap.clear()

    @property
    def events_executed(self) -> int:
        """Total number of callbacks dispatched (diagnostic)."""
        return self._nevents
