"""Per-core cycle breakdown.

Cores in TFlux run Kernels (the user-level runtime loop).  For the timing
simulation a core is an accounting entity: busy cycles (DThread compute +
memory stalls + runtime code) and idle cycles (waiting on the TSU for a
ready DThread).  :class:`CoreStats` is that breakdown as a record, with
the utilisation numbers the analysis layer reports; the live accumulator
every backend charges into is :class:`repro.obs.KernelAccount`, whose
``snapshot()`` produces it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CoreStats"]


@dataclass
class CoreStats:
    """Cycle breakdown for one core."""

    compute_cycles: int = 0
    memory_cycles: int = 0
    runtime_cycles: int = 0  # kernel loop, TSU protocol, post-processing
    idle_cycles: int = 0
    dthreads_executed: int = 0

    @property
    def busy_cycles(self) -> int:
        return self.compute_cycles + self.memory_cycles + self.runtime_cycles

    @property
    def total_cycles(self) -> int:
        return self.busy_cycles + self.idle_cycles

    def utilisation(self) -> float:
        total = self.total_cycles
        return self.busy_cycles / total if total else 0.0
