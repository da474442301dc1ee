"""The Data-Driven Multithreading (DDM) model — the paper's contribution.

This subpackage defines the machine-independent entities of §2 and §3:

* :class:`~repro.core.dthread.DThreadTemplate` /
  :class:`~repro.core.dthread.DThreadInstance` — DThreads: non-overlapping
  code sections executed internally in control-flow order but scheduled in
  dataflow order.
* :class:`~repro.core.graph.SynchronizationGraph` — nodes are DThreads,
  arcs are producer→consumer data dependencies; expansion yields the
  instance-level graph with Ready Counts.
* :class:`~repro.core.block.DDMBlock` — subsets of the instance graph that
  fit in the TSU, each bracketed by an Inlet and an Outlet DThread.
* :class:`~repro.core.program.DDMProgram` — the complete executable: the
  ordered blocks plus the shared-data environment.
* :class:`~repro.core.environment.Environment` — named shared variables and
  arrays, with the region map that lets the timing layer model their cache
  behaviour.
* :class:`~repro.core.builder.ProgramBuilder` — the construction API used
  by the preprocessor back-end, the decorator front-end, and the apps;
  its thread/arc declarations are :class:`~repro.core.graph.GraphBuilder`'s,
  shared with :class:`~repro.core.dynamic.Subflow`.
* :mod:`repro.core.regions` — the shared region algebra (byte intervals,
  line tables, segment spaces) used by the dependence deriver and the
  distributed owner map.
* :mod:`repro.core.deps` — the Couillard-style dependence deriver: computes
  the synchronization graph from per-thread access summaries
  (:func:`~repro.core.deps.derive`, :meth:`ProgramBuilder.auto_depends`)
  and diagnoses declared graphs against it
  (:func:`~repro.core.deps.check_deps`).
"""

from repro.core.context import Context, CTX_ALL
from repro.core.dthread import DThreadInstance, DThreadTemplate, ThreadKind
from repro.core.dynamic import GraphEpoch, Subflow
from repro.core.environment import Environment
from repro.core.graph import Arc, GraphBuilder, GraphError, SynchronizationGraph
from repro.core.block import DDMBlock
from repro.core.program import DDMProgram, ProgramReusedError
from repro.core.builder import ProgramBuilder
from repro.core.deps import (
    ContextMap,
    DepsReport,
    Derivation,
    DerivationError,
    check_deps,
    derive,
)

__all__ = [
    "Context",
    "CTX_ALL",
    "DThreadInstance",
    "DThreadTemplate",
    "ThreadKind",
    "GraphEpoch",
    "Subflow",
    "Environment",
    "Arc",
    "GraphBuilder",
    "GraphError",
    "SynchronizationGraph",
    "DDMBlock",
    "DDMProgram",
    "ProgramReusedError",
    "ProgramBuilder",
    "ContextMap",
    "DepsReport",
    "Derivation",
    "DerivationError",
    "check_deps",
    "derive",
]
