"""Fluent construction API for DDM programs.

:class:`ProgramBuilder` is the single entry point used by

* the application kernels in :mod:`repro.apps`,
* the preprocessor back-end (:mod:`repro.preprocessor.backend`), which
  turns ``#pragma ddm`` directives into builder calls, and
* the decorator front-end (:mod:`repro.frontend`).

Its ``thread`` / ``depends`` / ``cond`` are inherited from
:class:`~repro.core.graph.GraphBuilder`, the declaration surface it
shares with :class:`~repro.core.dynamic.Subflow`.

Example
-------
>>> from repro.core import ProgramBuilder
>>> b = ProgramBuilder("sum2")
>>> parts = b.env.alloc("parts", 2)
>>> t_add = b.thread("add", body=lambda env, i: env.array("parts").__setitem__(i, i + 1),
...                  contexts=range(2))
>>> t_tot = b.thread("total", body=lambda env, _:
...                  env.set("total", float(env.array("parts").sum())))
>>> _ = b.depends(t_add, t_tot, mapping="all")
>>> prog = b.build()
>>> prog.run_sequential().get("total")
3.0
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.environment import Environment
from repro.core.graph import GraphBuilder
from repro.core.program import DDMProgram, SequentialSection

__all__ = ["ProgramBuilder"]


class ProgramBuilder(GraphBuilder):
    """Accumulates templates, arcs and sequential sections into a program.

    ``thread`` / ``depends`` / ``cond`` are
    :class:`~repro.core.graph.GraphBuilder`'s; this class adds what only
    a whole program has: the Environment, the sequential sections, arc
    derivation and :meth:`build`.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.env = Environment()
        self._prologue: list[SequentialSection] = []
        self._epilogue: list[SequentialSection] = []

    def auto_depends(self):
        """Derive arcs from the threads' declared access summaries.

        Computes the write→read / write→write / read→write ordering arcs
        implied by each template's ``accesses`` declarations
        (:mod:`repro.core.deps`) and adds them to the graph.  Template
        pairs that already have a *declared* direct arc are skipped —
        the programmer's arc takes precedence and the ``--check-deps``
        diagnosis judges its adequacy.  Threads without ``accesses`` are
        opaque and contribute nothing (keep explicit ``depends`` for
        them).  Returns the arcs added.
        """
        from repro.core.deps import derive

        derivation = derive(self.graph, self.env)
        declared = {(a.producer, a.consumer) for a in self.graph.arcs}
        added = []
        for spec in derivation.template_arcs():
            if (spec.producer, spec.consumer) in declared:
                continue
            added.append(
                self.graph.add_arc(spec.producer, spec.consumer, spec.mapping)
            )
        return added

    # -- sequential sections --------------------------------------------------
    def prologue(
        self,
        name: str,
        body: Optional[Callable[[Environment], None]] = None,
        cost: Optional[Callable[[Environment], int]] = None,
        accesses: Optional[Callable[[Environment], Any]] = None,
    ) -> SequentialSection:
        section = SequentialSection(name, body, cost, accesses)
        self._prologue.append(section)
        return section

    def epilogue(
        self,
        name: str,
        body: Optional[Callable[[Environment], None]] = None,
        cost: Optional[Callable[[Environment], int]] = None,
    ) -> SequentialSection:
        section = SequentialSection(name, body, cost)
        self._epilogue.append(section)
        return section

    # -- finish ---------------------------------------------------------------
    def build(self) -> DDMProgram:
        """Validate the graph and produce the program object."""
        self.graph.validate()
        return DDMProgram(
            name=self.name,
            graph=self.graph,
            env=self.env,
            prologue=list(self._prologue),
            epilogue=list(self._epilogue),
        )
