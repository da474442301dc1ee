"""Fair multi-tenant admission + dispatch queue for the job frontier.

The server admits batches of jobs from many tenants but owns one worker
pool; *which* queued job runs next decides whether one tenant's 500-cell
grid can starve another's single job.  This scheduler makes that
decision deterministically — no wall clock, no randomness — so fairness
is a unit-testable property:

* **Per-tenant FIFO.**  Each tenant has its own queue; within a tenant,
  jobs dispatch in submission order.
* **Round-robin between tenants.**  At equal priority, successive
  :meth:`FairScheduler.next` calls rotate through tenants in first-seen
  order, one job each — an interleaved drain, never batch-at-a-time.
* **Priority with aging.**  A tenant's head job carries the batch's
  base priority (higher dispatches sooner).  Every dispatch that passes
  a waiting tenant over ages it: after ``aging_rounds`` skips its
  effective priority rises by one, so a low-priority tenant under a
  stream of high-priority traffic is delayed proportionally, never
  starved.
* **Bounded queues.**  Admission is all-or-nothing per batch against a
  per-tenant and a global depth bound (:meth:`FairScheduler.can_accept`)
  — the server replies ``overloaded`` instead of buffering without
  limit.

Aging is counted in *dispatch decisions*, not seconds: the scheduler is
a pure state machine, so the fairness tests replay exact sequences.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

__all__ = ["FairScheduler"]


class FairScheduler:
    """Deterministic per-tenant fair queue with priority aging."""

    def __init__(
        self,
        max_queued_per_tenant: int,
        max_queued_total: int,
        aging_rounds: int,
    ) -> None:
        if max_queued_per_tenant < 1 or max_queued_total < 1:
            raise ValueError("queue bounds must be >= 1")
        if aging_rounds < 1:
            raise ValueError("aging_rounds must be >= 1")
        self.max_queued_per_tenant = max_queued_per_tenant
        self.max_queued_total = max_queued_total
        self.aging_rounds = aging_rounds
        self._queues: dict[str, deque[tuple[int, Any]]] = {}
        self._rotation: list[str] = []  # tenants in first-seen order
        self._skipped: dict[str, int] = {}  # dispatches that passed us over
        self._last = -1  # rotation index of the last dispatched tenant
        self._total = 0

    # -- admission ------------------------------------------------------------
    def can_accept(self, tenant: str, njobs: int) -> bool:
        """Would a batch of *njobs* from *tenant* fit the bounds?"""
        queued = len(self._queues.get(tenant, ()))
        return (
            queued + njobs <= self.max_queued_per_tenant
            and self._total + njobs <= self.max_queued_total
        )

    def submit(self, tenant: str, item: Any, priority: int = 0) -> bool:
        """Queue one job; ``False`` means the bounds refuse it.

        Batch admission should check :meth:`can_accept` first so a batch
        is admitted whole or not at all.
        """
        if not self.can_accept(tenant, 1):
            return False
        q = self._queues.get(tenant)
        if q is None:
            q = self._queues[tenant] = deque()
            self._rotation.append(tenant)
            self._skipped[tenant] = 0
        q.append((priority, item))
        self._total += 1
        return True

    # -- dispatch -------------------------------------------------------------
    def next(self) -> Optional[tuple[str, Any]]:
        """The next ``(tenant, item)`` to run, or ``None`` when idle.

        Picks the pending tenant whose head job has the highest
        effective priority ``base + skipped // aging_rounds``; ties go
        to the first candidate in rotation order starting *after* the
        last dispatched tenant (that scan origin is what realises
        round-robin).  Every other pending tenant ages by one skip.
        """
        if self._total == 0:
            return None
        names = self._rotation
        start = (self._last + 1) % len(names)
        best_i = -1
        best_eff = None
        for off in range(len(names)):
            i = (start + off) % len(names)
            q = self._queues[names[i]]
            if not q:
                continue
            eff = q[0][0] + self._skipped[names[i]] // self.aging_rounds
            if best_eff is None or eff > best_eff:
                best_i, best_eff = i, eff
        assert best_i >= 0
        tenant = names[best_i]
        _, item = self._queues[tenant].popleft()
        self._total -= 1
        self._skipped[tenant] = 0
        for name, q in self._queues.items():
            if q and name != tenant:
                self._skipped[name] += 1
        self._last = best_i
        return tenant, item

    # -- introspection --------------------------------------------------------
    @property
    def pending_total(self) -> int:
        return self._total

    def pending(self, tenant: str) -> int:
        return len(self._queues.get(tenant, ()))

    def tenants(self) -> list[str]:
        """Every tenant ever admitted, in rotation order."""
        return list(self._rotation)

    def __repr__(self) -> str:
        depths = {t: len(q) for t, q in self._queues.items() if q}
        return f"FairScheduler(pending={self._total}, queues={depths})"
