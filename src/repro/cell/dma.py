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

    def price(self, summary: AccessSummary) -> tuple[int, int, int, int, int]:
        """One DThread's DMA, in one pass over its summary.

        Returns ``(working_set, import_cycles, export_cycles, bytes_read,
        bytes_written)``:

        * the working set is the bytes simultaneously needed in the Local
          Store: resident ranges count in full (reads are held while
          outputs are produced), streamed ranges two tiles (double
          buffering);
        * every range the DThread reads is DMA'd in, every range it
          writes DMA'd out (:meth:`transfer_cycles`, tile by tile when
          streamed);
        * the byte totals are the bytes the DThread reads and writes,
          each op's bytes times its repetitions: what the
          SharedVariableBuffer accounts.
        """
        working_set = imports = exports = nread = nwritten = 0
        transfer = self.transfer_cycles
        for op in summary.ops:
            nbytes = op.bytes_touched
            if op.resident:
                working_set += nbytes
                cycles = transfer(nbytes)
            else:
                working_set += min(nbytes, 2 * STREAM_TILE_BYTES)
                cycles = transfer(nbytes, streamed=True)
            if op.is_write:
                exports += cycles
                nwritten += nbytes * op.reps
            else:
                imports += cycles
                nread += nbytes * op.reps
        return working_set, imports, exports, nread, nwritten
