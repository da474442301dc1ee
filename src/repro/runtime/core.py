"""The Kernel step machine: one DDM Kernel loop for every backend.

The paper's central claim is portability — *one* runtime semantics
re-hosted on TFluxHard, TFluxSoft and TFluxCell (§3.1, Figure 2).  This
module is that claim at the runtime layer: :func:`kernel_loop` is the
single implementation of the Kernel protocol — dispatch on
:class:`~repro.tsu.group.FetchKind`, body execution, completion
notification, span and counter emission — and both backends (the DES
driver in :mod:`repro.runtime.simdriver` and the OS-thread backend in
:mod:`repro.runtime.native`) supply only the three things that
genuinely differ, through the :class:`KernelBackend` protocol.  The
*functional* half of a DThread — calling its body against the
program's Environment — is the loop's own business: a backend never
calls ``template.run``, it only prices the instance that just ran
(`charge_thread`) and ships the body's outcome to its TSU
(`complete`).  A DThread body runs here and in the program's
sequential loop (:meth:`~repro.core.program.DDMProgram.steps`, the
oracle and the §5 baseline, which has no TSU), and nowhere else.
What a backend supplies:

* a **time source** (`now`) — simulated cycles or ``perf_counter``
  microseconds;
* a **blocking/wake strategy** (`wait`) — a DES event with the
  lost-wakeup guard, or a condition-variable wait;
* **cost charging** (`charge_runtime`, `charge_thread`) —
  adapter/memory-system cycles or wall-clock deltas.

The loop is a generator so the DES engine can drive it directly: every
`yield` a backend step performs propagates to the engine (`yield from`).
Blocking backends implement their steps as plain methods wrapped with
:func:`blocking_step` — zero-yield generators — and drive the loop to
completion with :func:`run_kernel_blocking` on an OS thread.

The wake discipline (the one place it is documented)
----------------------------------------------------

A kernel that receives ``WAIT`` must not sleep past a wakeup that fired
between *reading* the TSU state and *parking*.  The discipline, shared
by every backend:

1. the fetch that returned ``WAIT`` is already accounted
   (``account.waits``) — waiting is observed at fetch time, not at
   park time;
2. before parking, `wait` re-checks ``TSUGroup.has_work(kernel)``
   *atomically with respect to wakeups*: the DES backend re-checks on
   the engine's cooperative timeline (no wakeup can interleave between
   the check and the event registration), the native backend re-checks
   under the same mutex that every ``notify_all`` holds;
3. if work appeared, `wait` returns immediately and the loop re-fetches;
   otherwise it parks on the backend's wake primitive (DES ``Event``,
   ``threading.Condition``) and charges the parked time as idle;
4. *every* TSU transition that can create work (inlet/outlet completion,
   post-processing that readies consumers) notifies under the same
   atomicity domain — ``ProtocolAdapter.wake_kernels`` on the DES,
   ``Condition.notify_all`` on the native backend.

Spurious wakeups are benign by construction: the loop always re-fetches
after `wait` returns, and the TSU answers ``WAIT`` again if nothing is
actually ready.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Callable, Generator, Protocol

from repro.tsu.group import Fetch, FetchKind

if TYPE_CHECKING:  # typing only
    from repro.core.program import DDMProgram
    from repro.obs import KernelAccount

__all__ = [
    "KernelBackend",
    "StepGenerator",
    "blocking_step",
    "kernel_loop",
    "run_kernel_blocking",
]

#: A backend step: a generator whose yields (if any) belong to the
#: backend's scheduler (the DES engine); its ``return`` value is the
#: step's result.  Blocking backends produce zero-yield generators via
#: :func:`blocking_step`.
StepGenerator = Generator[Any, Any, Any]


class KernelBackend(Protocol):
    """What a runtime backend supplies to :func:`kernel_loop`.

    Every step method is a generator (see :data:`StepGenerator`); the
    step machine delegates with ``yield from`` so DES backends can
    suspend inside any step.  Blocking backends wrap plain methods with
    :func:`blocking_step`.
    """

    #: Checked at the top of every loop iteration; ``True`` makes the
    #: kernel leave its loop (cooperative shutdown after a peer failed).
    stop_requested: bool
    #: The program being executed; the loop runs DThread bodies against
    #: its Environment.
    program: "DDMProgram"

    def now(self, kernel: int) -> float:
        """Current time on this backend's axis (cycles or µs)."""
        ...

    def fetch(self, kernel: int) -> StepGenerator:
        """Ask the TSU for the next unit of work; returns a Fetch."""
        ...

    def wait(self, kernel: int) -> StepGenerator:
        """Park until work may be available (see the wake discipline
        in the module docstring); charges parked time as idle."""
        ...

    def run_inlet(self, kernel: int, fetch: Fetch) -> StepGenerator:
        """Execute the block's Inlet (TSU metadata load)."""
        ...

    def run_outlet(self, kernel: int, fetch: Fetch) -> StepGenerator:
        """Execute the block's Outlet (SM clear / block sequencing)."""
        ...

    def charge_thread(
        self, kernel: int, fetch: Fetch, since: float
    ) -> StepGenerator:
        """Charge the compute/memory cost of the DThread instance the
        loop just ran (its body started at *since*) on this backend's
        axis.  Pricing only: the body has already executed."""
        ...

    def complete(self, kernel: int, fetch: Fetch, outcome: Any) -> StepGenerator:
        """Tell the TSU the DThread finished (Post-Processing Phase
        entry point: posted command, TUB push, or direct call), handing
        it the body's *outcome* — a branch key or spawned Subflow, whose
        shipping this step also charges (TUB push, posted command
        stores).  Static threads return ``None``, for which the outcome
        must cost nothing: static programs execute bit-identically to a
        build without dynamic graphs."""
        ...

    def charge_runtime(self, kernel: int, since: float) -> None:
        """Charge ``now - since`` as runtime (Kernel loop / TSU
        protocol) time to *kernel*."""
        ...

    def emit_span(
        self, kernel: int, inst: Any, kind: str, start: float, end: float
    ) -> None:
        """Emit one probe span for the scheduled instance *inst* (a
        DThread, Inlet or Outlet); the probe names it, if it keeps it."""
        ...


def blocking_step(fn: Callable) -> Callable:
    """Adapt a plain (possibly blocking) method into a zero-yield step.

    The wrapped callable runs synchronously when the step machine
    delegates to it with ``yield from`` — it never yields, so
    :func:`run_kernel_blocking` can drive the loop on an OS thread.
    Blocking primitives (mutexes, condition waits) are fine inside;
    they block the hosting thread, which is exactly the point.
    """

    @functools.wraps(fn)
    def step(*args: Any, **kwargs: Any) -> StepGenerator:
        return fn(*args, **kwargs)
        yield

    return step


def kernel_loop(
    backend: KernelBackend, kernel: int, account: "KernelAccount"
) -> StepGenerator:
    """The DDM Kernel loop of Figure 2, over one :class:`KernelBackend`.

    One iteration = one TSU round trip: fetch, dispatch on the reply's
    :class:`~repro.tsu.group.FetchKind`, and loop.  Accounting rules
    (identical on every backend, asserted by the cross-backend
    differential suite):

    * ``account.fetches`` — exactly one per TSU fetch, WAIT replies
      included;
    * ``account.waits`` — exactly one per WAIT reply (whether or not
      the backend actually parks);
    * ``account.dthreads`` — one per application DThread, counted after
      its completion notification;
    * runtime time covers fetches and completions, idle time covers
      parked waits, compute/memory time covers DThread bodies —
    * spans: one per Inlet/Outlet/DThread; a DThread's span runs from
      body start through its completion notification.
    """
    while True:
        if backend.stop_requested:
            return
        t0 = backend.now(kernel)
        fetch = yield from backend.fetch(kernel)
        backend.charge_runtime(kernel, t0)
        account.fetches += 1
        kind = fetch.kind

        if kind is FetchKind.EXIT:
            return

        if kind is FetchKind.WAIT:
            account.waits += 1
            yield from backend.wait(kernel)
            continue

        if kind is FetchKind.INLET:
            t0 = backend.now(kernel)
            yield from backend.run_inlet(kernel, fetch)
            backend.charge_runtime(kernel, t0)
            backend.emit_span(
                kernel, fetch.instance, "inlet", t0, backend.now(kernel)
            )
            continue

        if kind is FetchKind.OUTLET:
            t0 = backend.now(kernel)
            yield from backend.run_outlet(kernel, fetch)
            backend.charge_runtime(kernel, t0)
            backend.emit_span(
                kernel, fetch.instance, "outlet", t0, backend.now(kernel)
            )
            continue

        # FetchKind.THREAD — the application DThread path.  The body
        # runs here and nowhere else (the functional half); the backend
        # then prices it and ships its outcome (branch key, spawned
        # subflow, None for static threads) with the completion, inside
        # one runtime bracket.
        inst = fetch.instance
        assert inst is not None, "THREAD fetch carries no instance"
        t_thread = backend.now(kernel)
        outcome = inst.template.run(backend.program.env, inst.ctx)
        yield from backend.charge_thread(kernel, fetch, t_thread)
        t0 = backend.now(kernel)
        yield from backend.complete(kernel, fetch, outcome)
        backend.charge_runtime(kernel, t0)
        account.dthreads += 1
        backend.emit_span(kernel, inst, "thread", t_thread, backend.now(kernel))


def run_kernel_blocking(
    backend: KernelBackend, kernel: int, account: "KernelAccount"
) -> None:
    """Drive :func:`kernel_loop` to completion on the calling thread.

    For backends whose steps never yield (everything made with
    :func:`blocking_step`); a step that does yield is a contract
    violation and raises immediately rather than silently dropping the
    yielded value.
    """
    for leaked in kernel_loop(backend, kernel, account):
        raise RuntimeError(
            f"blocking backend {type(backend).__name__} yielded {leaked!r}; "
            "blocking backends must wrap steps with @blocking_step"
        )
