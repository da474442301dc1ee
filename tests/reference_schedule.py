"""An outside reference for the schedule of a static DDM program.

Every other check of a run's cycles compares the simulator with itself
(twins sharing ``TSUGroup``, ``kernel_loop`` and ``Engine``, or golden
counts of what the code once did).  This module is written from the
documented rules alone and imports nothing from ``repro.tsu``,
``repro.runtime`` or ``repro.sim``.  It covers one block run on the
zero-overhead adapter with compute-only threads of positive cost:

* **Local ids** (the block's order): Kahn's algorithm over instance
  pairs with a FIFO queue, the entry fringe in instance order, and a
  retiring instance's consumers in arc order, then in its mapping's
  order (``core/block.py``: blocks are cut along that order).
* **Placement** (the TKT, §3.1): each kernel gets a contiguous range of
  every template's contexts; the *i*-th of *n* goes to kernel
  ``i * nkernels // n``.
* **Selection** (§3.1, ``docs/model.md``): each kernel's Synchronization
  Memory pops its ready instances smallest local id first.
* **The Inlet and the Outlet** go to the first kernel that asks: kernel
  0 at cycle 0 for the Inlet, and for the Outlet the kernel whose
  completion was pushed first among those retiring in the last cycle.
* **Same-cycle order**: every completion due in a cycle posts before any
  kernel fetches in that cycle.  Then the kernels that just completed
  fetch, in completion order, then the kernels their completions woke,
  in wake order.  One completion wakes the parked kernels it readied
  work for in ascending kernel order (``docs/model.md``).  At cycle 0,
  kernel 0 (back from the Inlet) fetches first, then the rest in kernel
  order.  A kernel whose queue is empty parks until a completion
  readies work for it.  Only the Outlet's kernel depends on this order:
  every queue is a kernel's own.
* **Timing**: a DThread occupies its kernel from its fetch to fetch plus
  its cost, and every TSU operation is free.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Union

__all__ = ["Graph", "schedule"]

#: An arc's mapping: ``"all"`` (every producer instance feeds every
#: consumer instance), or per producer context the consumer contexts it
#: feeds, in order.
Pairs = Union[str, tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class Graph:
    """A static program: templates and arcs, in declaration order."""

    #: ``(name, cost of each context)`` per template.
    templates: tuple[tuple[str, tuple[int, ...]], ...]
    #: ``(producer, consumer, pairs)``, templates by index.
    arcs: tuple[tuple[int, int, Pairs], ...]


def schedule(graph: Graph, nkernels: int) -> dict[str, tuple[int, int, int]]:
    """``(kernel, start, end)`` of every instance, keyed ``name[ctx]``,
    plus the ``"inlet"`` and the ``"outlet"``."""
    first, names, costs = [], [], []
    for name, tcosts in graph.templates:
        first.append(len(names))
        names += [f"{name}[{ctx}]" for ctx in range(len(tcosts))]
        costs += tcosts
    n = len(names)
    out: list[list[int]] = [[] for _ in range(n)]
    for prod, cons, pairs in graph.arcs:
        nprod, ncons = len(graph.templates[prod][1]), len(graph.templates[cons][1])
        for p in range(nprod):
            targets = range(ncons) if pairs == "all" else pairs[p]
            out[first[prod] + p] += [first[cons] + c for c in targets]
    indeg = [0] * n
    for targets in out:
        for v in targets:
            indeg[v] += 1

    # Local ids: the FIFO topological order.
    left = list(indeg)
    queue = deque(u for u in range(n) if left[u] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in out[u]:
            left[v] -= 1
            if left[v] == 0:
                queue.append(v)
    local = {u: i for i, u in enumerate(order)}

    # Placement: contiguous contexts per template.
    kernel_of = [0] * n
    for t, (_name, tcosts) in enumerate(graph.templates):
        for ctx in range(len(tcosts)):
            kernel_of[first[t] + ctx] = ctx * nkernels // len(tcosts)

    ready: list[list[int]] = [[] for _ in range(nkernels)]
    for u in range(n):
        if indeg[u] == 0:
            heapq.heappush(ready[kernel_of[u]], local[u])
    spans = {"inlet": (0, 0, 0)}
    running: list[tuple[int, int, int, int]] = []  # (end, push seq, kernel, iid)
    parked: list[int] = []
    seq = 0

    def fetch(now: int, kernels: list[int]) -> None:
        nonlocal seq
        for k in kernels:
            if not ready[k]:
                parked.append(k)
                continue
            u = order[heapq.heappop(ready[k])]
            seq += 1
            heapq.heappush(running, (now + costs[u], seq, k, u))
            spans[names[u]] = (k, now, now + costs[u])

    fetch(0, list(range(nkernels)))
    left = list(indeg)
    retired = 0
    while running:
        now = running[0][0]
        completed, woken = [], []
        while running and running[0][0] == now:
            _end, _seq, k, u = heapq.heappop(running)
            completed.append(k)
            retired += 1
            readied = set()
            for v in out[u]:
                left[v] -= 1
                if left[v] == 0:
                    heapq.heappush(ready[kernel_of[v]], local[v])
                    readied.add(kernel_of[v])
            for w in sorted(readied):
                if w in parked:
                    parked.remove(w)
                    woken.append(w)
        if retired == n:
            spans["outlet"] = (completed[0], now, now)
            break
        fetch(now, completed + woken)
    return spans
