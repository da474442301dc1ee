"""Tiny runtime shim imported by preprocessor-generated code.

Generated thread functions access shared variables through a
:class:`SharedProxy` (``_S.total``, ``_S.parts[i]``), and use the C
arithmetic helpers for division/modulo semantics.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np

__all__ = ["SharedProxy", "cdiv", "cmod", "c_printf"]


class SharedProxy:
    """Attribute-style view of an Environment's shared variables."""

    __slots__ = ("_env",)

    def __init__(self, env: Any) -> None:
        object.__setattr__(self, "_env", env)

    def __getattr__(self, name: str) -> Any:
        env = object.__getattribute__(self, "_env")
        try:
            return env[name]
        except KeyError:
            raise AttributeError(f"no shared variable {name!r}") from None

    def __setattr__(self, name: str, value: Any) -> None:
        env = object.__getattribute__(self, "_env")
        env[name] = value


def _both_int(a: Any, b: Any) -> bool:
    """A ``bool`` is an int here: generated code gets one only from a
    comparison or ``!``, whose C value is the int 0 or 1."""
    return isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))


def cdiv(a: Any, b: Any) -> Any:
    """C division: truncating for two integers, true division otherwise."""
    if _both_int(a, b):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def cmod(a: Any, b: Any) -> Any:
    """C remainder: sign follows the dividend for integers."""
    if _both_int(a, b):
        return a - cdiv(a, b) * b
    return np.fmod(a, b)


def c_printf(fmt: str, *args: Any) -> None:
    """Minimal printf: C-style % formatting, no trailing newline added.

    The format string is always %-processed (so ``%%`` prints ``%`` even
    with no varargs, as in C); a conversion with missing arguments raises,
    which C leaves undefined anyway.
    """
    sys.stdout.write(fmt % args)
