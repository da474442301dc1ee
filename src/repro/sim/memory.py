"""Main-memory (DRAM) capacity accounting.

The cache hierarchy charges a flat DRAM access latency per missing line
(:class:`repro.sim.cache.MemoryConfig.dram_latency`); this module adds
only the machine-level capacity check: the PS3's 256 MB XDR is small
enough that the paper had to care (§6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MainMemory"]


@dataclass
class MainMemory:
    """A flat memory device of *capacity* bytes (e.g. ``256 << 20`` for
    the PS3) that shared regions are allocated from."""

    capacity: int
    _allocated: int = field(default=0, init=False)

    def allocate(self, nbytes: int) -> int:
        """Reserve *nbytes*; returns the base offset.

        Raises :class:`MemoryError` when the machine's physical memory is
        exhausted — the PS3's 256 MB limit is a real constraint for the
        large QSORT/MMULT problem sizes.
        """
        if self._allocated + nbytes > self.capacity:
            raise MemoryError(
                f"allocation of {nbytes} bytes exceeds capacity "
                f"{self.capacity} (used {self._allocated})"
            )
        base = self._allocated
        self._allocated += nbytes
        return base
