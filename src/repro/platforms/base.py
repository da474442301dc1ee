"""The platform interface: one DDM program, any machine.

A :class:`Platform` knows its machine configuration, how many compute
kernels it can offer, and how to build the protocol adapter that prices
TSU operations.  All platforms execute through the same Kernel step
machine (:mod:`repro.runtime.core`) hosted on the DES by
:class:`~repro.runtime.simdriver.SimulatedRuntime` — a platform differs
only in its adapter and machine, never in runtime semantics (the paper's
portability claim).  ``execute`` runs a program; ``evaluate`` reproduces the
paper's measurement protocol for one (benchmark, size, kernel count)
cell: run the sequential baseline and the parallel version — optionally
taking the best over a set of unroll factors, as §5 prescribes — and
report the speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.apps.common import Benchmark, ProblemSize
from repro.core.program import DDMProgram
from repro.exec import UNROLL_LADDER, EvalRequest, evaluate_many
from repro.obs import Probe, RunRecord
from repro.runtime import simdriver
from repro.runtime.stats import RunResult
from repro.sim.engine import Engine
from repro.sim.machine import MachineConfig
from repro.tsu.base import ProtocolAdapter
from repro.tsu.group import TSUGroup

__all__ = ["Platform", "Evaluation"]


@dataclass
class Evaluation:
    """Result of one paper-style measurement cell."""

    platform: str
    bench: str
    size_label: str
    nkernels: int
    speedup: float
    best_unroll: int
    parallel_cycles: int
    sequential_cycles: int
    per_unroll: dict[int, float] = field(default_factory=dict)
    #: Telemetry of the best parallel run: the env-free, picklable
    #: :class:`~repro.obs.RunRecord` (it crossed the repro.exec pool and
    #: cache boundaries; functional output is verified before slimming).
    result: Optional[RunRecord] = None

    def row(self) -> str:
        return (
            f"{self.bench:>7s} {self.size_label:>6s} "
            f"kernels={self.nkernels:<3d} speedup={self.speedup:5.2f} "
            f"(unroll={self.best_unroll})"
        )


class Platform:
    """Base class for TFluxHard / TFluxSoft / TFluxCell."""

    #: Target letter in Table 1 (S / N / C) — selects problem sizes.
    target = "S"

    def __init__(self, machine: MachineConfig, name: str) -> None:
        self.machine = machine
        self.name = name

    # -- to be provided by the implementations ----------------------------------
    def adapter_factory(self) -> Callable[[Engine, TSUGroup], ProtocolAdapter]:
        raise NotImplementedError

    @property
    def max_kernels(self) -> int:
        """Compute kernels available on this platform."""
        return self.machine.max_kernels

    # -- execution ------------------------------------------------------------------
    def execute(
        self,
        program: DDMProgram,
        nkernels: int,
        tsu_capacity: Optional[int] = None,
        exact_memory: bool = False,
        allow_stealing: bool = False,
        tracer: Optional[Probe] = None,
    ) -> RunResult:
        """Run *program* with *nkernels* Kernels; returns the result.

        Pass a collecting *tracer* (e.g. :class:`repro.obs.Tracer`) to
        keep per-DThread spans.
        """
        if nkernels > self.max_kernels:
            raise ValueError(
                f"{self.name} offers at most {self.max_kernels} kernels "
                f"({nkernels} requested)"
            )
        runtime = simdriver.SimulatedRuntime(
            program,
            self.machine,
            nkernels=nkernels,
            adapter_factory=self.adapter_factory(),
            tsu_capacity=tsu_capacity,
            exact_memory=exact_memory,
            allow_stealing=allow_stealing,
            platform_name=self.name,
            tracer=tracer,
        )
        return runtime.run()

    def sequential_baseline(
        self,
        program: DDMProgram,
        exact_memory: bool = False,
        tracer: Optional[Probe] = None,
    ) -> RunResult:
        """The §5 baseline: same machine, one core, no TFlux overheads.

        Records the original sequential program
        (:func:`~repro.runtime.simdriver.record_sequential`) and prices
        the recording on this machine
        (:func:`~repro.runtime.simdriver.price_sequential`).
        *exact_memory* selects the exact cache model so the baseline is
        priced by the same memory system as a matching parallel run.
        Spans (all on kernel 0) go to *tracer* when one is given.
        """
        record = simdriver.price_sequential(
            simdriver.record_sequential(program), self.machine, exact_memory, tracer
        )
        return RunResult(**vars(record), env=program.env)

    # -- the paper's measurement protocol ------------------------------------------------
    def evaluate(
        self,
        bench: Benchmark,
        size: ProblemSize,
        nkernels: int,
        unrolls: "Sequence[int] | str" = UNROLL_LADDER,
        verify: bool = True,
        max_threads: int = 4096,
    ) -> Evaluation:
        """Speedup for one cell, taking the best over *unrolls* for the
        parallel version (paper §5).

        The measured quantity is the parallelised region (gettimeofday
        around the parallel section); the baseline is the *original*
        sequential program (unroll=1) on the same machine, recorded once
        per program and process and priced on each call — see
        :mod:`repro.exec.pool`.  The unroll search runs through
        :mod:`repro.exec` — set ``TFLUX_JOBS`` to parallelise it and
        ``TFLUX_CACHE_DIR`` to memoise results on disk.  Pass
        ``unrolls="auto"`` for the adaptive search: coarse probes plus
        local refinement over the standard ladder, same winner as the
        full grid in fewer simulations.
        """
        request = EvalRequest(
            platform=self,
            bench=bench.name,
            size=size,
            nkernels=nkernels,
            unrolls="auto" if unrolls == "auto" else tuple(unrolls),
            verify=verify,
            max_threads=max_threads,
        )
        return evaluate_many([request])[0]
