"""TFluxSoft: commodity SMP with a software TSU emulator."""

from __future__ import annotations

from typing import Callable

from repro.platforms.base import Platform
from repro.sim.engine import Engine
from repro.sim.machine import XEON_8
from repro.tsu.base import ProtocolAdapter
from repro.tsu.group import TSUGroup
from repro.tsu.software import SoftTSUCosts, SoftwareTSUAdapter

__all__ = ["TFluxSoft"]


class TFluxSoft(Platform):
    """Up to 6 compute kernels on the 8-core Xeon box: one core is
    reserved for the OS (§5) and one runs the TSU Emulator (§4.2,
    Figure 4)."""

    target = "N"

    def __init__(self) -> None:
        super().__init__(XEON_8, name="tfluxsoft")
        self.costs = SoftTSUCosts()

    @property
    def max_kernels(self) -> int:
        # OS core + TSU Emulator core are unavailable to Kernels.
        return self.machine.ncores - self.machine.os_reserved_cores - 1

    def adapter_factory(self) -> Callable[[Engine, TSUGroup], ProtocolAdapter]:
        costs = self.costs
        return lambda engine, tsu: SoftwareTSUAdapter(engine, tsu, costs)
