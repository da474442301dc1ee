"""DMA cost model for SPE Local Store transfers.

SPEs access main memory only through explicit DMA over the Element
Interconnect Bus: each transfer pays a setup cost (MFC command issue +
queue) plus a per-128-byte-line streaming cost.  Imports (main memory →
LS) happen before a DThread starts; exports (LS → SharedVariableBuffer)
after it completes — "this data is imported from the sharedVariableBuffer
into the SPE Local Store memory space, where this new DThread will
execute.  This operation is performed using the DMA primitives" (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.accesses import AccessSummary

__all__ = ["DMAEngine"]

#: Tile size for streamed (non-resident) ranges; double-buffered.
STREAM_TILE_BYTES = 16 * 1024


@dataclass
class DMAEngine:
    """Per-SPE DMA channel (costs only; bandwidth shared via the EIB is
    second-order for ≤6 SPEs and not modelled)."""

    setup_cycles: int
    cycles_per_line: int
    line_size: int
    transfers: int = field(default=0, init=False)
    bytes_moved: int = field(default=0, init=False)

    def transfer_cycles(self, nbytes: int, streamed: bool = False) -> int:
        """Cost of moving *nbytes* (one transfer, or tile-by-tile)."""
        if nbytes <= 0:
            return 0
        lines = -(-nbytes // self.line_size)
        ntransfers = -(-nbytes // STREAM_TILE_BYTES) if streamed else 1
        self.transfers += ntransfers
        self.bytes_moved += nbytes
        return self.setup_cycles * ntransfers + lines * self.cycles_per_line

    def import_cycles(self, summary: AccessSummary) -> int:
        """DMA-in every range the DThread reads."""
        return sum(
            self.transfer_cycles(op.bytes_touched, streamed=not op.resident)
            for op in summary
            if not op.is_write
        )

    def export_cycles(self, summary: AccessSummary) -> int:
        """DMA-out every range the DThread writes."""
        return sum(
            self.transfer_cycles(op.bytes_touched, streamed=not op.resident)
            for op in summary
            if op.is_write
        )

    def working_set_bytes(self, summary: AccessSummary) -> int:
        """Bytes simultaneously needed in the Local Store.

        Resident ranges count in full (reads are held while outputs are
        produced); streamed ranges need two tiles (double buffering).
        """
        total = 0
        for op in summary:
            if op.resident:
                total += op.bytes_touched
            else:
                total += min(op.bytes_touched, 2 * STREAM_TILE_BYTES)
        return total
