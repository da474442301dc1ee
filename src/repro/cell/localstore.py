"""SPE Local Store capacity model.

Each SPE owns 256 KB of Local Store holding *everything* it needs: the
kernel's code, the runtime, and every byte of DThread data DMA'd in.
"The reason for not using larger problem sizes is that they would not fit
in each SPE Local Store" (paper §6.3) — this module is where that
constraint lives: a DThread whose working set exceeds the available data
budget raises :class:`CellLocalStoreError`, exactly the wall the paper hit
with QSORT.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CellLocalStoreError", "LocalStore"]

#: Bytes of Local Store consumed by the SPE kernel binary + TFlux runtime
#: (the paper's SPE kernel, DMA lists, stack, and the CommandBuffer copy).
DEFAULT_RESERVED_BYTES = 48 * 1024


class CellLocalStoreError(MemoryError):
    """A DThread's working set does not fit in the SPE Local Store."""


@dataclass
class LocalStore:
    """Capacity tracker for one SPE's Local Store."""

    capacity: int = 256 * 1024
    reserved: int = DEFAULT_RESERVED_BYTES
    high_watermark: int = 0

    @property
    def data_budget(self) -> int:
        return self.capacity - self.reserved

    def require(self, nbytes: int, what: str = "DThread working set") -> None:
        """Record a working-set demand; raise if it cannot fit."""
        self.high_watermark = max(self.high_watermark, nbytes)
        if nbytes > self.data_budget:
            raise CellLocalStoreError(
                f"{what} needs {nbytes} bytes but only {self.data_budget} of "
                f"the {self.capacity}-byte Local Store are available "
                f"({self.reserved} reserved for code/runtime); the "
                "application must be restructured to stage its data (§6.3)"
            )
