"""TFluxCell: the PS3 Cell/BE heterogeneous platform."""

from __future__ import annotations

from typing import Callable

from repro.cell.adapter import CellCosts, CellTSUAdapter
from repro.platforms.base import Platform
from repro.sim.engine import Engine
from repro.sim.machine import CELL_PS3
from repro.tsu.base import ProtocolAdapter
from repro.tsu.group import TSUGroup

__all__ = ["TFluxCell"]


class TFluxCell(Platform):
    """Kernels on up to 6 SPEs; the TSU Emulator on the PPE (§4.3, §6.3).

    DThread memory behaviour is priced as explicit DMA between main
    memory and the 256 KB Local Stores instead of coherent caches, and
    DThreads whose resident working set exceeds the Local Store raise
    :class:`~repro.cell.localstore.CellLocalStoreError`.
    """

    target = "C"

    def __init__(self) -> None:
        super().__init__(CELL_PS3, name="tfluxcell")
        self.costs = CellCosts()

    @property
    def max_kernels(self) -> int:
        return self.machine.cell.n_spes

    def adapter_factory(self) -> Callable[[Engine, TSUGroup], ProtocolAdapter]:
        params = self.machine.cell
        costs = self.costs
        return lambda engine, tsu: CellTSUAdapter(engine, tsu, params, costs)
