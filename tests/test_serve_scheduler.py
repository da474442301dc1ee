"""Deterministic fairness/backpressure tests for the serve scheduler.

Every property is pinned by replaying an exact submit/dispatch sequence —
the scheduler is a pure state machine (no wall clock), so there are no
sleeps anywhere in this file.  A case that needs other bounds or another
aging rate patches the module constant for its own length.
"""

import repro.serve.scheduler as scheduler_module
from repro.serve import FairScheduler


def drain(sched):
    order = []
    while True:
        entry = sched.next()
        if entry is None:
            return order
        order.append(entry)


# -- round-robin ---------------------------------------------------------------
def test_round_robin_interleaves_tenants():
    s = FairScheduler()
    for i in range(3):
        s.submit("alice", f"a{i}")
    for i in range(3):
        s.submit("bob", f"b{i}")
    assert [t for t, _ in drain(s)] == ["alice", "bob"] * 3


def test_fifo_within_tenant():
    s = FairScheduler()
    for i in range(4):
        s.submit("alice", i)
    assert [item for _, item in drain(s)] == [0, 1, 2, 3]


def test_late_tenant_joins_rotation():
    s = FairScheduler()
    s.submit("alice", "a0")
    s.submit("alice", "a1")
    assert s.next() == ("alice", "a0")
    s.submit("bob", "b0")  # arrives mid-drain, still gets its turn next
    assert s.next() == ("bob", "b0")
    assert s.next() == ("alice", "a1")


def test_idle_returns_none():
    s = FairScheduler()
    assert s.next() is None
    s.submit("alice", 1)
    s.next()
    assert s.next() is None


# -- priority ------------------------------------------------------------------
def test_higher_priority_dispatches_first():
    s = FairScheduler()
    s.submit("bulk", "low", priority=0)
    s.submit("urgent", "high", priority=5)
    assert s.next()[0] == "urgent"
    assert s.next()[0] == "bulk"


def test_priority_is_per_job_not_per_tenant():
    s = FairScheduler()
    s.submit("alice", "interactive", priority=3)
    s.submit("alice", "batch", priority=0)
    s.submit("bob", "batch", priority=0)
    assert s.next() == ("alice", "interactive")
    # alice's head is now priority 0 — plain round-robin resumes with bob.
    assert s.next()[0] == "bob"


def test_aging_prevents_starvation(monkeypatch):
    """A priority-0 tenant under an endless priority-5 stream dispatches
    after exactly AGING_ROUNDS skips per level — delayed, never starved."""
    monkeypatch.setattr(scheduler_module, "AGING_ROUNDS", 3)
    s = FairScheduler()
    s.submit("low", "the-job", priority=0)
    for i in range(20):
        s.submit("high", f"h{i}", priority=5)
    order = []
    for _ in range(17):
        order.append(s.next()[0])
    # Low's effective priority is 0 + skips // 3; at 15 skips it ties
    # high's 5 and the tie breaks to low (the scan starts after the
    # last-dispatched tenant), so dispatch 16 is low's.
    assert order == ["high"] * 15 + ["low", "high"]


def test_aging_resets_after_dispatch(monkeypatch):
    monkeypatch.setattr(scheduler_module, "AGING_ROUNDS", 2)
    s = FairScheduler()
    s.submit("low", "j1", priority=0)
    s.submit("low", "j2", priority=0)
    for i in range(12):
        s.submit("high", f"h{i}", priority=1)
    seq = [s.next()[0] for _ in range(8)]
    # low wins after 2 skips (0 + 2//2 = 1 ties, tie goes to scan order
    # after "high"), then must age again from zero for j2.
    assert seq.count("low") == 2
    first, second = (i for i, t in enumerate(seq) if t == "low")
    assert second - first >= 2  # aged from scratch between wins


# -- bounds / backpressure -----------------------------------------------------
def test_per_tenant_bound(monkeypatch):
    monkeypatch.setattr(scheduler_module, "MAX_QUEUED_PER_TENANT", 2)
    monkeypatch.setattr(scheduler_module, "MAX_QUEUED_TOTAL", 100)
    s = FairScheduler()
    assert s.can_accept("alice", 2)
    assert not s.can_accept("alice", 3)
    assert s.submit("alice", 1) and s.submit("alice", 2)
    assert not s.submit("alice", 3)
    assert s.can_accept("bob", 2)  # independent per-tenant budget
    s.next()
    assert s.can_accept("alice", 1)  # dispatch frees depth


def test_global_bound(monkeypatch):
    monkeypatch.setattr(scheduler_module, "MAX_QUEUED_PER_TENANT", 100)
    monkeypatch.setattr(scheduler_module, "MAX_QUEUED_TOTAL", 3)
    s = FairScheduler()
    s.submit("alice", 1)
    s.submit("bob", 2)
    s.submit("carol", 3)
    assert not s.can_accept("dave", 1)
    assert not s.submit("dave", 4)
    s.next()
    assert s.submit("dave", 4)


# -- determinism ---------------------------------------------------------------
def test_replay_is_deterministic(monkeypatch):
    """Identical submit sequences produce identical dispatch sequences."""
    monkeypatch.setattr(scheduler_module, "AGING_ROUNDS", 2)

    def run():
        s = FairScheduler()
        for i in range(5):
            s.submit("a", ("a", i), priority=i % 3)
            s.submit("b", ("b", i), priority=(i + 1) % 2)
            if i % 2:
                s.submit("c", ("c", i), priority=4)
        return drain(s)

    assert run() == run()


def test_introspection():
    s = FairScheduler()
    s.submit("alice", 1)
    s.submit("alice", 2)
    s.submit("bob", 3)
    assert s.pending_total == 3
    assert s.pending("alice") == 2 and s.pending("nobody") == 0
    assert s.tenants() == ["alice", "bob"]
