"""DThread contexts.

A DThread template with a loop range is *instantiated* once per context
value, exactly like the context field of classic dynamic-dataflow tokens:
the pair ``(template id, context)`` names one dynamic DThread instance.
Contexts here are integers (loop indices) or tuples of integers (nested
loops); the special :data:`CTX_ALL` names "every instance of a template"
in dependence declarations.
"""

from __future__ import annotations

from typing import Tuple, Union

__all__ = ["Context", "CTX_ALL", "normalize_context", "context_range"]

#: One dynamic instance identifier component: an int or tuple of ints.
Context = Union[int, Tuple[int, ...]]


class _All:
    """Sentinel: an arc touching every instance of a template."""

    _instance = None

    def __new__(cls) -> "_All":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "CTX_ALL"


CTX_ALL = _All()


def normalize_context(ctx: Context) -> Context:
    """Canonicalise a context: 1-tuples collapse to plain ints."""
    if isinstance(ctx, tuple):
        if len(ctx) == 1:
            return ctx[0]
        return tuple(int(c) for c in ctx)
    return int(ctx)


def context_range(*bounds: int) -> list[Context]:
    """All contexts of an n-deep loop nest with the given trip counts.

    >>> context_range(3)
    [0, 1, 2]
    >>> context_range(2, 2)
    [(0, 0), (0, 1), (1, 0), (1, 1)]
    """
    if not bounds:
        return [0]
    if len(bounds) == 1:
        return list(range(bounds[0]))
    result: list[Context] = []

    def rec(prefix: tuple[int, ...], rest: tuple[int, ...]) -> None:
        if not rest:
            result.append(normalize_context(prefix))
            return
        for i in range(rest[0]):
            rec(prefix + (i,), rest[1:])

    rec((), tuple(bounds))
    return result
