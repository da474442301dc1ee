"""Unit tests for the discrete-event simulation kernel."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine, Event, Resource, SimulationError


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_timeout_advances_clock():
    eng = Engine()
    ends = []

    def proc(eng):
        yield 5
        yield 7
        ends.append(eng.now)

    p = eng.process(proc(eng))
    eng.run()
    assert ends == [12] and not p.is_alive
    assert eng.now == 12


def test_event_wait_and_value():
    """A waiter resumes at the trigger's cycle, and the ``yield``
    evaluates to None: events carry no value."""
    eng = Engine()
    ev = eng.event("ping")
    woken = []

    def producer(eng, ev):
        yield 10
        ev.succeed()

    def consumer(ev):
        got = yield ev
        woken.append((eng.now, got))

    eng.process(producer(eng, ev))
    c = eng.process(consumer(ev))
    eng.run()
    assert woken == [(10, None)] and not c.is_alive


def test_wait_on_already_triggered_event():
    """A late waiter is a misuse: the run raises instead of hanging."""
    eng = Engine()
    ev = eng.event()
    ev.succeed()

    def consumer(ev):
        yield ev

    eng.process(consumer(ev))
    with pytest.raises(SimulationError, match="late waiter"):
        eng.run()


def test_second_waiter_rejected():
    """An event has one waiter; a second raises instead of hanging."""
    eng = Engine()
    ev = eng.event()

    def consumer(ev):
        yield ev

    eng.process(consumer(ev))
    eng.process(consumer(ev))
    with pytest.raises(SimulationError, match="second waiter"):
        eng.run()


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_clock_read_mid_run():
    eng = Engine()
    seen = []

    def proc():
        yield 40
        seen.append(eng.now)
        yield 60

    eng.process(proc())
    eng.run()
    assert seen == [40]
    assert eng.now == 100


def test_same_time_events_fifo_order():
    eng = Engine()
    order = []

    def proc(tag):
        yield 5
        order.append(tag)

    for tag in ("a", "b", "c"):
        eng.process(proc(tag))
    eng.run()
    assert order == ["a", "b", "c"]


def test_resource_mutual_exclusion():
    eng = Engine()
    res = Resource(eng, capacity=1, name="bus")
    timeline = []

    def user(eng, res, tag, hold):
        yield from res.acquire()
        timeline.append((eng.now, tag, "acquire"))
        yield hold
        res.release()
        timeline.append((eng.now, tag, "release"))

    eng.process(user(eng, res, "a", 10))
    eng.process(user(eng, res, "b", 5))
    eng.run()
    assert timeline == [
        (0, "a", "acquire"),
        (10, "a", "release"),
        (10, "b", "acquire"),
        (15, "b", "release"),
    ]


def test_resource_capacity_two():
    def contended(nusers, rounds=1):
        """*nusers* processes queueing *rounds* times on two slots;
        returns (most slots ever held, events dispatched)."""
        eng = Engine()
        res = Resource(eng, capacity=2)
        active = {"n": 0, "max": 0}

        def user(eng, res):
            for _ in range(rounds):
                yield from res.acquire()
                active["n"] += 1
                active["max"] = max(active["max"], active["n"])
                yield 5
                active["n"] -= 1
                res.release()

        for _ in range(nusers):
            eng.process(user(eng, res))
        eng.run()
        assert active["n"] == 0
        return active["max"], eng.events_executed

    assert contended(5)[0] == 2
    # The grant queue under load (the bus arbiter / TSU command port
    # shape) dispatches events in proportion to the work, whatever the
    # queue depth: twice the waiters, twice the events.
    base = contended(64, rounds=200)[1]
    assert contended(128, rounds=200)[1] == pytest.approx(2 * base, rel=0.02)


def test_resource_release_when_idle_rejected():
    eng = Engine()
    res = Resource(eng)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_fifo_grant_order():
    eng = Engine()
    res = Resource(eng, capacity=1)
    grants = []

    def user(eng, res, tag):
        yield from res.acquire()
        grants.append(tag)
        yield 1
        res.release()

    for tag in range(6):
        eng.process(user(eng, res, tag))
    eng.run()
    assert grants == list(range(6))


def test_resource_try_acquire_respects_queue_fifo():
    """An on-the-spot grant never jumps a queued waiter: a requester
    arriving in the very callback that frees the slot (and hands it to
    the waiter) queues behind it."""
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def holder(eng, res):
        yield from res.acquire()
        yield 5
        res.release()
        # The slot went to the queued waiter, whose grant has not
        # run yet; asking again must not take it.
        yield from res.acquire()
        order.append(("holder", eng.now))
        res.release()

    def waiter(eng, res):
        yield 2
        yield from res.acquire()
        order.append(("waiter", eng.now))
        yield 1
        res.release()

    eng.process(holder(eng, res))
    eng.process(waiter(eng, res))
    eng.run()
    assert order == [("waiter", 5.0), ("holder", 6.0)]


def _hold_schedule(capacity, arrivals):
    """Every holder's (grant time, finish time, hold's return value) for
    *arrivals* = [(arrival time, hold cycles)] on one capacity-k resource,
    and the events the run dispatched."""
    eng = Engine()
    res = Resource(eng, capacity=capacity)
    rows = [None] * len(arrivals)

    def holder(i, at, cycles):
        yield at
        queued = yield from res.hold(cycles)
        rows[i] = (eng.now - cycles, eng.now, queued)

    for i, (at, cycles) in enumerate(arrivals):
        eng.process(holder(i, at, cycles))
    eng.run()
    return rows, eng.events_executed


def _fifo_oracle(capacity, arrivals):
    """The same rows in closed form: holds are served in (arrival cycle,
    creation) order, each granted at the later of its arrival and the
    earliest-free slot."""
    free = [0] * capacity
    rows = [None] * len(arrivals)
    for i in sorted(range(len(arrivals)), key=lambda i: (arrivals[i][0], i)):
        at, cycles = arrivals[i]
        granted = max(at, heapq.heappop(free))
        heapq.heappush(free, granted + cycles)
        rows[i] = (granted, granted + cycles, granted - at)
    return rows


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=3),
    arrivals=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=6),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_hold_matches_fifo_oracle(capacity, arrivals):
    """Whatever the arrival pattern, every hold is granted, finished and
    charged its queueing exactly as a FIFO multi-server queue says."""
    rows, _events = _hold_schedule(capacity, arrivals)
    assert rows == _fifo_oracle(capacity, arrivals)


def test_uncontended_hold_is_one_event():
    """A slot granted on the spot is not an event: one process's whole
    schedule is its start, its arrival timeout and its hold timeout."""
    rows, events = _hold_schedule(1, [(3, 5)])
    assert rows == [(3, 8, 0)]
    assert events == 3


def test_same_cycle_grant_takes_its_heap_place():
    """A release at cycle T hands the slot to its queued waiter W through
    one callback pushed at T, behind everything already due at T: X's
    timer runs first, and so does Y, which pushes a timer for T + c (c
    W's hold) before W is resumed, so at T + c Y runs before W's release.
    X's ``yield 0`` at T is pushed after the grant and runs after W; the
    holder asking again at T queues behind W (FIFO)."""
    eng = Engine()
    res = Resource(eng, capacity=1)
    c = 3
    timeline = []

    def log(tag):
        timeline.append((eng.now, tag))

    def holder():  # releases at T = 5
        yield from res.hold(5)
        log("H released")
        queued = yield from res.hold(1)
        log(f"H again, queued {queued}")

    def waiter():
        yield 1
        yield from res.acquire()
        log("W granted")
        yield c
        res.release()
        log("W released")

    def early():  # a timer already due at T
        yield 5
        log("X due")
        yield 0
        log("X after grant")

    def stacker():  # resumed at T before W, pushes T + c
        yield 5
        log("Y pushes")
        yield c
        log("Y due")

    for gen in (holder(), waiter(), early(), stacker()):
        eng.process(gen)
    eng.run()
    assert timeline == [
        (5, "H released"),
        (5, "X due"),
        (5, "Y pushes"),
        (5, "W granted"),
        (5, "X after grant"),
        (8, "Y due"),
        (8, "W released"),
        (9, "H again, queued 3.0"),
    ]
    # Four starts, eight timers and the two grants: a grant is one
    # callback, whatever carries it.
    assert eng.events_executed == 14


@pytest.mark.parametrize("busy", [False, True])
def test_hold_rejects_negative_duration_before_taking_a_slot(busy):
    """Same error on an idle or a busy resource: no slot taken, no queueing."""
    eng = Engine()
    res = Resource(eng, capacity=1)
    if busy:
        eng.process(res.hold(10))
    eng.process(res.hold(-1))
    with pytest.raises(SimulationError, match="negative hold"):
        eng.run()
    assert res._in_use == int(busy) and not res._queue


def test_clear_closes_what_a_raising_run_left_suspended():
    """A run that raised leaves one process on the heap and one on an
    event that never fires; clear() closes both (their ``finally`` runs,
    the held slot is released) and leaves nothing scheduled."""
    eng = Engine()
    res = Resource(eng, capacity=1)
    closed = []

    def holder():
        try:
            yield from res.hold(10)
        finally:
            closed.append("holder")

    def waiter():
        try:
            yield eng.event()
        finally:
            closed.append("waiter")

    def boom():
        yield 1
        raise ValueError("boom")

    for gen in (holder(), waiter(), boom()):
        eng.process(gen)
    with pytest.raises(ValueError, match="boom"):
        eng.run()
    assert closed == [] and res._in_use == 1
    eng.clear()
    assert sorted(closed) == ["holder", "waiter"]
    assert res._in_use == 0 and not eng._heap and not eng._live


def test_all_of_combines_events():
    eng = Engine()
    evs = [eng.event() for _ in range(3)]

    def trigger(eng, ev, delay):
        yield delay
        ev.succeed()

    for i, ev in enumerate(evs):
        eng.process(trigger(eng, ev, 10 - i))

    woken = []

    def waiter(eng, combined):
        yield combined
        woken.append(eng.now)

    w = eng.process(waiter(eng, eng.all_of(evs)))
    eng.run()
    assert woken == [10] and not w.is_alive


def test_all_of_without_events_is_rejected_at_the_call():
    """Nothing could trigger an empty all_of: its waiter would hang until
    the run reported a stall, so the call itself fails."""
    eng = Engine()
    with pytest.raises(SimulationError, match="at least one event"):
        eng.all_of([])
    with pytest.raises(SimulationError, match="at least one event"):
        eng.all_of(iter(()))


def test_finished_process_holds_no_callback():
    """A process binds its resume callback once and drops it when its
    generator returns: process -> bound method -> process is a cycle."""
    eng = Engine()
    ev = eng.event()

    def waiter():
        yield 2
        yield ev
        yield 3

    proc = eng.process(waiter())
    eng.run()  # drains with the process waiting on ev
    assert proc.is_alive and proc._callback is not None
    ev.succeed()
    eng.run()
    assert not proc.is_alive and proc._callback is None


def test_cleared_process_holds_no_callback():
    """Engine.clear drops the callback of every process it closes, on the
    heap or waiting on an event."""
    eng = Engine()

    def sleeper():
        yield 10

    def waiter():
        yield eng.event()

    def boom():
        yield 1
        raise ValueError("boom")

    procs = [eng.process(gen) for gen in (sleeper(), waiter(), boom())]
    with pytest.raises(ValueError, match="boom"):
        eng.run()
    assert all(p._callback is not None for p in procs)
    eng.clear()
    assert all(p._callback is None for p in procs)
    assert not eng._heap and not eng._live


def test_negative_delay_rejected():
    eng = Engine()

    def proc():
        yield -1

    eng.process(proc())
    with pytest.raises(SimulationError):
        eng.run()


def test_bad_yield_target_raises_inside_process():
    """An unsupported yield (here a string; a Process is one too) is
    raised out of the run: the engine does not throw it back into the
    process for a second try."""
    eng = Engine()

    def proc():
        yield "not-a-valid-target"

    eng.process(proc())
    with pytest.raises(SimulationError, match="unsupported"):
        eng.run()


def test_many_interleaved_processes_deterministic():
    def run_once():
        eng = Engine()
        trace = []

        def worker(eng, tag, period, count):
            for _ in range(count):
                yield period
                trace.append((eng.now, tag))

        for tag, period in [("x", 3), ("y", 5), ("z", 7)]:
            eng.process(worker(eng, tag, period, 10))
        eng.run()
        return trace

    assert run_once() == run_once()
    trace = run_once()
    times = [t for (t, _) in trace]
    assert times == sorted(times)


def test_with_cores_rescales_l2_pattern():
    from repro.sim.machine import XEON_8

    four = XEON_8.with_cores(4)
    assert four.l2_groups() == [0, 0, 1, 1]
