"""Discrete-event simulation core.

A minimal but complete DES kernel in the style of SimPy, tailored to the
needs of the TFlux platform models: cycle-granularity virtual time,
generator-based processes, one-shot events, and FIFO capacity resources
(used for the system bus arbiter, the hardware TSU command port, the TSU
emulator core, Cell mailboxes and the DMA engine).

Processes are plain Python generators.  A process may ``yield``:

* an ``int`` — advance this process by that many cycles;
* an :class:`Event` — suspend until the event is triggered (the ``yield``
  expression evaluates to the event's value);
* another :class:`Process` — suspend until that process terminates (the
  ``yield`` evaluates to its return value).

Models say "hold this resource for N cycles" (``yield from
resource.hold(n)``), and a hold has one protocol: a slot granted on the
spot is not an event, so an uncontended hold is the caller's one
timeout and only a request that has to queue waits on a grant event.
There is no second mode: every model, the MMI included
(:mod:`repro.sim.mmi`), runs its protocol step by step.

Example
-------
>>> eng = Engine()
>>> def pinger(eng, ev):
...     yield 10
...     ev.succeed("pong")
>>> def ponger(eng, ev):
...     value = yield ev
...     return (eng.now, value)
>>> ev = eng.event()
>>> eng.process(pinger(eng, ev))
<Process 'pinger' alive>
>>> p = eng.process(ponger(eng, ev))
>>> eng.run()
>>> p.done.value
(10.0, 'pong')
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
    exactly once, resuming every waiting process at the current
    simulation time.  Late waiters (processes that yield an event that has
    already been triggered) resume immediately.
    """

    __slots__ = ("engine", "_value", "triggered", "_waiters", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self.triggered = False
        self._value: Any = None
        # Allocated lazily on the first waiter: most events (resource
        # grants, process-done markers) trigger with zero or one waiter,
        # and this is the hottest allocation site in the kernel.
        self._waiters: Optional[list[Callable[["Event"], None]]] = None

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, delivering *value* to all waiters."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self._value = value
        self._flush()
        return self

    def _flush(self) -> None:
        waiters, self._waiters = self._waiters, None
        if waiters:
            # Deliver on the engine queue so resumption order is
            # deterministic and never re-entrant.
            schedule = self.engine._schedule
            for cb in waiters:
                schedule(0.0, cb, self)

    # -- waiting ---------------------------------------------------------
    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register *cb* to run (with this event) once triggered."""
        if self.triggered:
            self.engine._schedule(0.0, cb, self)
        elif self._waiters is None:
            self._waiters = [cb]
        else:
            self._waiters.append(cb)

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        return self._value

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Process:
    """A running simulation process wrapping a generator.

    The process's :attr:`done` event triggers when the generator returns;
    the generator's return value becomes the event value.  Yielding inside the generator follows the protocol
    documented in the module docstring.
    """

    __slots__ = ("engine", "gen", "done", "name")

    def __init__(self, engine: "Engine", gen: Generator, name: str = "") -> None:
        self.engine = engine
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Event(engine, name=f"done:{self.name}")
        engine._live.add(self)
        engine._schedule(0.0, self._resume, _SEND_NONE)

    @property
    def is_alive(self) -> bool:
        return not self.done.triggered

    def _resume(self, item: Any) -> None:
        try:
            if item is _SEND_NONE:  # timer expiry: the hot case
                target = self.gen.send(None)
            else:  # an Event delivering its value
                target = self.gen.send(item._value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._dispatch(target)

    def _finish(self, value: Any) -> None:
        self.engine._live.discard(self)
        self.done.succeed(value)

    def _dispatch(self, target: Any) -> None:
        """Suspend on the yielded target (delay, event, or process)."""
        if type(target) is int:  # plain cycle delay: the hot case
            self.engine._schedule(target, self._resume, _SEND_NONE)
        elif isinstance(target, Process):
            target.done.add_callback(self._resume)
        elif isinstance(target, Event):
            target.add_callback(self._resume)
        else:
            exc = SimulationError(
                f"process {self.name!r} yielded unsupported {target!r}"
            )
            try:
                recovered = self.gen.throw(exc)
            except StopIteration as stop:
                self._finish(stop.value)
                return
            # The generator handled the error and yielded a new target:
            # keep it running.  If it re-raised, the error escapes to the
            # engine run loop — a process that cannot handle it is a bug.
            self._dispatch(recovered)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {state}>"


# Sentinel distinguishing "send None" from "event delivery".
_SEND_NONE = object()


class Resource:
    """FIFO capacity resource (bus arbiter, TSU port, emulator core...).

    Models occupy a slot with ``yield from resource.hold(cycles)``:
    :meth:`acquire` (a grant :class:`Event`, waited on only if the
    request had to queue), the hold's cycles, then the holder's own
    ``release()``.  Grant order is strictly FIFO, which models the
    paper's bus arbiter behaviour and keeps simulations deterministic.
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
        self._queue: deque[Event] = deque()

    def acquire(self) -> Generator[Event, Any, None]:
        """Take a slot, suspending only if the request has to queue.

        Process fragment (``yield from resource.acquire()``), paired with
        one :meth:`release`.  A slot granted on the spot is not an event:
        the caller goes on in the same callback, with no zero-delay hop.
        A free slot never jumps the queue: with waiters queued, the
        caller queues behind them.
        """
        if self._queue or self._in_use >= self.capacity:
            grant = Event(self.engine, name=f"grant:{self.name}")
            self._queue.append(grant)
            yield grant
        else:
            self._in_use += 1

    def hold(self, cycles: float) -> Generator[Any, Any, float]:
        """Occupy one slot for *cycles*; returns the cycles spent queued.

        Process fragment (``queued = yield from resource.hold(n)``):
        :meth:`acquire`, the caller's timeout, the caller's ``release()``.
        An uncontended hold is that one timeout.
        """
        if cycles < 0:
            raise SimulationError(
                f"negative hold {cycles!r} on resource {self.name!r}"
            )
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
        """Free a slot, granting it to the longest-waiting requester."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            ev = self._queue.popleft()
            ev.succeed(self)
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
        """Event that triggers once every event in *events* has triggered."""
        events = list(events)
        combined = Event(self, name=name)
        remaining = len(events)
        if remaining == 0:
            combined.succeed([])
            return combined
        values: list[Any] = [None] * remaining
        state = {"left": remaining}

        def make_cb(i: int) -> Callable[[Event], None]:
            def cb(ev: Event) -> None:
                values[i] = ev.value
                state["left"] -= 1
                if state["left"] == 0:
                    combined.succeed(list(values))

            return cb

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
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
        engine) or on events that will never fire (whose owners the
        waiting generators hold).  Either is a cycle that keeps the
        whole simulation alive until the cycle collector runs.  Closing
        a generator runs its ``finally`` (a :meth:`Resource.hold`
        releasing its slot may schedule a grant), so the heap goes last.
        """
        live = self._live
        while live:
            live.pop().gen.close()
        self._heap.clear()

    @property
    def events_executed(self) -> int:
        """Total number of callbacks dispatched (diagnostic)."""
        return self._nevents
