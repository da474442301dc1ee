"""TFlux Runtime Support.

"The virtualization TFlux provides is mainly due to its Runtime Support.
The Runtime Support executes on top of an unmodified Operating System"
(paper §3.1).  The Kernel protocol itself — the loop of Figure 2 — is
implemented exactly once:

* :mod:`repro.runtime.core` — the backend-agnostic Kernel step machine
  (:func:`~repro.runtime.core.kernel_loop` over the
  :class:`~repro.runtime.core.KernelBackend` protocol), plus the unified
  wake discipline documentation;
* :mod:`repro.runtime.simdriver` — the timed execution on the simulated
  machines (the step machine hosted as DES processes, with a
  platform-specific protocol adapter pricing every TSU interaction) and
  the pricing of the sequential baseline, whose functional half is the
  program's own sequential loop (``DDMProgram.steps``);
* :mod:`repro.runtime.native` — a real ``threading``-based runtime that
  executes DThreads on host OS threads with the software-TSU structures
  (TUB, SM, TKT) and real locks, demonstrating the user-level runtime on
  a commodity OS exactly as TFluxSoft does.

:mod:`repro.runtime.stats` defines the result records shared by all
backends.
"""

from repro.runtime.core import (
    KernelBackend,
    blocking_step,
    kernel_loop,
    run_kernel_blocking,
)
from repro.runtime.stats import KernelStats, RunResult
from repro.runtime.simdriver import SimulatedRuntime
from repro.runtime.native import NativeRuntime

__all__ = [
    "KernelBackend",
    "KernelStats",
    "NativeRuntime",
    "RunResult",
    "SimulatedRuntime",
    "blocking_step",
    "kernel_loop",
    "run_kernel_blocking",
]
