"""Machine configurations used in the paper's evaluation.

Three machines appear in §6:

* **Bagle** — the Simics-simulated 28-core Sparc CMP (§6.1.1): per core a
  32 KB 4-way 64 B-line L1 D-cache (2-cycle read, 0-cycle write) and a
  2 MB 8-way L2 (20-cycle read/write); MESI coherence.  One core is
  reserved for the OS (§5), leaving the 27 compute nodes of Figure 5.
* **The IBM x3650 Xeon box** (§6.2.1) — 2 × Xeon E5320 QuadCore: per core
  a 32 KB 8-way 64 B L1 (3 cycles); each QuadCore pairs its cores, each
  pair sharing a 4 MB 16-way L2 (14 cycles).  One core is reserved for the
  OS and one runs the TSU Emulator, leaving the 6 kernels of Figure 6.
* **The Sony PS3 Cell/BE** (§6.3) — 3.2 GHz, one PPE (runs the TSU
  Emulator) plus 6 programmer-visible SPEs with 256 KB Local Stores and
  256 MB of XDR main memory.

:data:`BAGLE_27`, :data:`XEON_8` and :data:`CELL_PS3` are module-level
instances of these configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.sim.accesses import RegionSpace
from repro.sim.cache import CacheConfig, CoherentMemorySystem, MemoryConfig
from repro.sim.fastcache import FastMemorySystem

__all__ = ["MachineConfig", "CellParams", "BAGLE_27", "XEON_8", "X86_9_SIM", "CELL_PS3"]


@dataclass(frozen=True)
class CellParams:
    """Cell/BE-specific parameters (only set on the PS3 config)."""

    n_spes: int = 6
    local_store_bytes: int = 256 * 1024
    dma_setup_cycles: int = 300
    dma_cycles_per_line: int = 4  # sustained EIB bandwidth per 128B line
    dma_line_size: int = 128
    command_buffer_bytes: int = 128


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of one evaluation machine."""

    name: str
    ncores: int
    l1: CacheConfig
    l2: CacheConfig
    mem: MemoryConfig
    dram_bytes: int
    description: str = ""
    # Core i -> index of the L2 it uses (None = one private L2 per core).
    l2_group_of: Optional[tuple[int, ...]] = None
    os_reserved_cores: int = 1
    cell: Optional[CellParams] = None

    def l2_groups(self) -> list[int]:
        if self.l2_group_of is not None:
            return list(self.l2_group_of)
        return list(range(self.ncores))

    @property
    def max_kernels(self) -> int:
        """Compute kernels available once OS-reserved cores are removed.

        Platform layers subtract further cores (e.g. the TFluxSoft TSU
        Emulator core) on top of this.
        """
        return self.ncores - self.os_reserved_cores

    def memory_system(
        self, regions: RegionSpace, exact: bool = False,
        single_issuer: bool = False,
    ) -> CoherentMemorySystem | FastMemorySystem:
        """Build a memory system for this machine over *regions*.

        *single_issuer* declares that only one core will ever issue
        accesses (the sequential baseline): the fast model then skips the
        provably-inert coherence bookkeeping.  Timing is unaffected.
        """
        if exact:
            return CoherentMemorySystem(
                ncores=self.ncores,
                l1=self.l1,
                l2=self.l2,
                mem=self.mem,
                regions=regions,
                l2_groups=self.l2_groups(),
            )
        return FastMemorySystem(
            ncores=self.ncores,
            l1=self.l1,
            l2=self.l2,
            mem=self.mem,
            regions=regions,
            l2_groups=self.l2_groups(),
            single_issuer=single_issuer,
        )

    def with_cores(self, ncores: int) -> "MachineConfig":
        """A copy of this machine with a different core count.

        Used by the kernel-count sweeps: the paper varies the number of
        Kernels while keeping the machine fixed, which this mirrors by
        keeping all cache/latency parameters.
        """
        groups = None
        if self.l2_group_of is not None:
            # Preserve the pair-sharing *pattern* (cores/L2) at the new
            # core count rather than the original raw indices.
            cores_per_l2 = self.ncores // (max(self.l2_group_of) + 1)
            groups = tuple(i // cores_per_l2 for i in range(ncores))
        return replace(self, ncores=ncores, l2_group_of=groups)


# -- Bagle: the simulated 28-core Sparc CMP (TFluxHard host) ----------------
BAGLE_27 = MachineConfig(
    name="bagle",
    ncores=28,
    l1=CacheConfig(size=32 * 1024, line_size=64, assoc=4, read_latency=2, write_latency=0),
    l2=CacheConfig(size=2 * 1024 * 1024, line_size=64, assoc=8, read_latency=20, write_latency=20),
    mem=MemoryConfig(
        dram_latency=100, dram_burst_latency=16, cache_to_cache_latency=40, upgrade_latency=8
    ),
    dram_bytes=4 << 30,
    os_reserved_cores=1,
    description="Simics-simulated 28-core Sparc CMP (Suse 7.3, kernel 2.4.14 SMP)",
)

# -- IBM x3650: 2 x Xeon E5320 QuadCore (TFluxSoft host) --------------------
XEON_8 = MachineConfig(
    name="xeon8",
    ncores=8,
    l1=CacheConfig(size=32 * 1024, line_size=64, assoc=8, read_latency=3, write_latency=1),
    l2=CacheConfig(size=4 * 1024 * 1024, line_size=64, assoc=16, read_latency=14, write_latency=14),
    mem=MemoryConfig(
        dram_latency=200, dram_burst_latency=16, cache_to_cache_latency=60, upgrade_latency=12
    ),
    dram_bytes=18 << 30,
    # E5320: each QuadCore is two pairs, each pair shares one 4MB L2.
    l2_group_of=tuple(i // 2 for i in range(8)),
    os_reserved_cores=1,
    description="IBM x3650, 2x Xeon E5320 QuadCore, 18GB DDR2-333",
)

# -- The "9 cores X86 system similar to Bagle" of §6.1.2 --------------------
# "The same benchmarks have been executed on a simulated 9 cores X86 system
# similar to Bagle.  The speedup values observed and conclusions drawn are
# similar to those reported" — 9 cores, x86-flavoured latencies, otherwise
# Bagle-like (hardware TSU, private L2s, MESI).
X86_9_SIM = MachineConfig(
    name="x86_9sim",
    ncores=9,
    l1=CacheConfig(size=32 * 1024, line_size=64, assoc=8, read_latency=3, write_latency=1),
    l2=CacheConfig(size=2 * 1024 * 1024, line_size=64, assoc=8, read_latency=18, write_latency=18),
    mem=MemoryConfig(
        dram_latency=150, dram_burst_latency=16, cache_to_cache_latency=50, upgrade_latency=10
    ),
    dram_bytes=4 << 30,
    os_reserved_cores=1,
    description="Simics-style 9-core x86 CMP similar to Bagle (§6.1.2)",
)

# -- Sony PS3 Cell/BE (TFluxCell host) --------------------------------------
CELL_PS3 = MachineConfig(
    name="cell_ps3",
    ncores=7,  # 1 PPE + 6 programmer-visible SPEs
    # The PPE's caches (SPEs have Local Stores instead, see CellParams).
    l1=CacheConfig(size=32 * 1024, line_size=128, assoc=4, read_latency=2, write_latency=1),
    l2=CacheConfig(size=512 * 1024, line_size=128, assoc=8, read_latency=25, write_latency=25),
    mem=MemoryConfig(
        dram_latency=250, dram_burst_latency=16, cache_to_cache_latency=80, upgrade_latency=16
    ),
    dram_bytes=256 << 20,
    os_reserved_cores=0,
    cell=CellParams(),
    description="Sony PS3, Cell/BE @3.2GHz, 6 usable SPEs, 256MB XDR",
)
