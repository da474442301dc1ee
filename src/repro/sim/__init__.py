"""Full-system multicore simulator substrate.

This subpackage stands in for the Simics-based full-system simulator the
TFlux paper used for the TFluxHard evaluation (and for the native x86 and
Cell/BE machines used by TFluxSoft/TFluxCell).  It provides:

* :mod:`repro.sim.engine` — a discrete-event simulation (DES) core with
  generator-based processes, events, and capacity resources.
* :mod:`repro.sim.cache` — an exact set-associative, LRU, MESI-coherent
  cache-hierarchy model (line granularity), mirroring Simics ``gcache``.
* :mod:`repro.sim.fastcache` — a vectorised (NumPy) LRU/MESI model operating
  on declared access ranges; cross-validated against :mod:`repro.sim.cache`.
* :mod:`repro.sim.accesses` — the declarative memory-access summary language
  used by DThread cost models.
* :mod:`repro.sim.memory`, :mod:`repro.sim.interconnect` — DRAM and shared
  bus (with arbiter) models.
* :mod:`repro.sim.cpu`, :mod:`repro.sim.machine` — core and whole-machine
  configurations (the paper's "Bagle" 28-core CMP, the 8-core Xeon box, and
  the PS3 Cell/BE).
* :mod:`repro.sim.mmi` — the Memory-Mapped Interface through which the
  hardware TSU is attached to the system network.
"""

from repro.sim.engine import Engine, Event, Process, Resource
from repro.sim.accesses import AccessSummary, Read, Write, Region
from repro.sim.cache import CacheConfig, CoherentMemorySystem
from repro.sim.fastcache import FastMemorySystem
from repro.sim.machine import MachineConfig, BAGLE_27, XEON_8, X86_9_SIM, CELL_PS3

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Resource",
    "AccessSummary",
    "Read",
    "Write",
    "Region",
    "CacheConfig",
    "CoherentMemorySystem",
    "FastMemorySystem",
    "MachineConfig",
    "BAGLE_27",
    "XEON_8",
    "X86_9_SIM",
    "CELL_PS3",
]
