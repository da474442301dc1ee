"""Decorator-based DDM program construction."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.core.builder import ProgramBuilder
from repro.core.context import Context
from repro.core.dthread import DThreadTemplate
from repro.core.environment import Environment
from repro.core.program import DDMProgram

__all__ = ["DDM"]

#: A producer reference in ``depends=[...]``: the decorated function, the
#: template, or a numeric tid — optionally paired with a mapping.
ProducerRef = Union[Callable, DThreadTemplate, int]
DependSpec = Union[ProducerRef, tuple[ProducerRef, Union[str, Callable]]]


class DDM:
    """A DDM program under construction via decorators."""

    def __init__(self, name: str) -> None:
        self._builder = ProgramBuilder(name)
        self._templates: dict[Callable, DThreadTemplate] = {}
        self._built: Optional[DDMProgram] = None

    @property
    def env(self) -> Environment:
        return self._builder.env

    # -- helpers -----------------------------------------------------------
    def _resolve(self, ref: ProducerRef) -> int:
        if isinstance(ref, DThreadTemplate):
            return ref.tid
        if isinstance(ref, int):
            return ref
        tmpl = self._templates.get(ref)
        if tmpl is None:
            raise ValueError(
                f"{ref!r} is not a registered DThread of this program"
            )
        return tmpl.tid

    # -- decorators -----------------------------------------------------------
    def thread(
        self,
        contexts: Union[int, Iterable[Context]] = 1,
        depends: Sequence[DependSpec] = (),
        cost: Optional[Callable[[Any, Context], int]] = None,
        accesses: Optional[Callable[[Any, Context], Any]] = None,
        affinity: Optional[Callable[[Context, int], int]] = None,
    ) -> Callable[[Callable], Callable]:
        """Register the decorated ``f(env, ctx)`` as a DThread template.

        ``depends`` entries are producers: either a bare reference
        (mapping defaults to ``"same"``) or ``(producer, mapping)`` where
        mapping is ``"same"``, ``"all"`` or a callable context map.
        """

        def decorate(fn: Callable) -> Callable:
            if self._built is not None:
                raise RuntimeError("program already built")
            tmpl = self._builder.thread(
                fn.__name__,
                body=fn,
                contexts=contexts,
                cost=cost,
                accesses=accesses,
                affinity=affinity,
            )
            self._templates[fn] = tmpl
            for spec in depends:
                if isinstance(spec, tuple):
                    producer, mapping = spec
                else:
                    producer, mapping = spec, "same"
                self._builder.depends(self._resolve(producer), tmpl, mapping)
            fn.template = tmpl  # type: ignore[attr-defined]
            return fn

        return decorate

    # -- finish ------------------------------------------------------------------
    def build(self) -> DDMProgram:
        """Validate and return the program (idempotent)."""
        if self._built is None:
            self._built = self._builder.build()
        return self._built
