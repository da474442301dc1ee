"""The Thread Synchronization Unit (TSU).

The TSU is the component that makes DDM work: it holds, per DThread
instance, the *Ready Count* and the consumers, decrements consumers'
counts when a producer completes (the Post-Processing Phase), and hands
ready DThreads to querying Kernels (paper §2, §3.3).

* :mod:`repro.tsu.group` — the **TSU Group**: the functional scheduling
  state machine shared by every implementation (per-kernel Synchronization
  Memories, the Thread-to-Kernel Table, block sequencing with
  Inlet/Outlet hand-off).
* :mod:`repro.tsu.sm` / :mod:`repro.tsu.tkt` / :mod:`repro.tsu.tub` — the
  TFluxSoft data structures: Synchronization Memory, Thread-to-Kernel
  Table (Thread Indexing), and the segmented Thread-to-Update Buffer with
  its try-lock discipline.
* :mod:`repro.tsu.policy` — placement (TKT construction) and
  ready-thread-selection policies ("most likely to maximise spatial
  locality").
* :mod:`repro.tsu.hardware` — the TFluxHard cost adapter: every TSU
  operation crosses the system network through the MMI and pays the
  configurable TSU processing latency.
* :mod:`repro.tsu.software` — the TFluxSoft cost adapter: kernels push
  completions into the TUB; a TSU Emulator thread on a dedicated core
  drains it (the one ``EmulatorShard``).
* :mod:`repro.tsu.multigroup` — the §4.1 multiple-TSU-Groups extension:
  the hardware adapter with one MMI device per group.
* :mod:`repro.tsu.dist` — the TFluxDist cost adapter: the software
  adapter with one emulator shard per node, remote Ready-Count updates
  as :mod:`repro.net` messages (:mod:`repro.tsu.hier` relays them
  through cluster heads).

(The TFluxCell cost adapter lives with its substrate in
:mod:`repro.cell.adapter`.)
"""

from repro.tsu.group import Fetch, FetchKind, TSUGroup
from repro.tsu.dist import DistTSUAdapter
from repro.tsu.multigroup import MultiGroupHardwareAdapter
from repro.tsu.sm import SynchronizationMemory, ThreadEntry
from repro.tsu.tkt import ThreadToKernelTable
from repro.tsu.tub import ThreadUpdateBuffer
from repro.tsu.policy import contiguous_placement, round_robin_placement

__all__ = [
    "Fetch",
    "FetchKind",
    "TSUGroup",
    "DistTSUAdapter",
    "MultiGroupHardwareAdapter",
    "SynchronizationMemory",
    "ThreadEntry",
    "ThreadToKernelTable",
    "ThreadUpdateBuffer",
    "contiguous_placement",
    "round_robin_placement",
]
