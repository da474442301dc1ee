"""The typed counter registry: one spine for all per-run accounting.

Every component that counts something — the TSU Group's scheduling
counters, each protocol adapter's traffic counters, the TUB's push/retry
statistics, the native runtime's emulator drain counters — publishes its
values into one :class:`Counters` registry at the end of a run, under a
dotted namespace (``tsu.fetches``, ``tub.retries``, ``dma.bytes_imported``).

Components keep plain integer attributes on their hot paths (a DES fetch
happens millions of times per sweep; attribute increments are the cheapest
Python offers) and implement ``publish_counters(counters)`` to dump them
into the registry once, when the run's :class:`~repro.obs.record.RunRecord`
is assembled.  That keeps the paper-critical timing loops untouched while
giving every platform the same reporting contract.

Counters are *typed* (integer-only, validated on the way in), *namespaced*
(dotted names; :meth:`Counters.scope` binds a prefix), and *mergeable*
(:meth:`Counters.merge` sums by name — the natural reduction for
aggregating repeated runs or multi-device adapters).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

__all__ = ["Counters", "CounterScope"]

_NAME_ERROR = (
    "counter names are non-empty dotted identifiers, e.g. 'tsu.fetches'"
)


def _check_name(name: str) -> None:
    if not isinstance(name, str) or not name:
        raise TypeError(_NAME_ERROR)
    for part in name.split("."):
        if not part.isidentifier():
            raise ValueError(f"bad counter name {name!r}: {_NAME_ERROR}")


def _check_value(name: str, value: object) -> int:
    # bool is an int subclass but a True/False count is always a bug.
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(
            f"counter {name!r} takes int values, got {type(value).__name__}"
        )
    return value


class Counters:
    """Named, namespaced, mergeable integer counters."""

    __slots__ = ("_values",)

    def __init__(self, values: Optional[Mapping[str, int]] = None) -> None:
        self._values: dict[str, int] = {}
        if values:
            for name, value in values.items():
                self.inc(name, value)

    # -- writing ------------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        """Add *value* to counter *name* (creating it at zero)."""
        _check_name(name)
        self._values[name] = self._values.get(name, 0) + _check_value(name, value)

    def scope(self, prefix: str) -> "CounterScope":
        """A view that prefixes every name with ``prefix.``."""
        _check_name(prefix)
        return CounterScope(self, prefix)

    def merge(self, other: "Counters | Mapping[str, int]") -> "Counters":
        """Sum *other*'s counters into this registry; returns ``self``."""
        items = other.items() if isinstance(other, Counters) else other.items()
        for name, value in items:
            self.inc(name, value)
        return self

    # -- reading ------------------------------------------------------------
    def __getitem__(self, name: str) -> int:
        return self._values[name]

    def get(self, name: str) -> int:
        """The counter's value; 0 for a name nothing incremented."""
        return self._values.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> list[tuple[str, int]]:
        return sorted(self._values.items())

    def as_dict(self) -> dict[str, int]:
        """A plain sorted ``{name: value}`` dict (JSON-ready)."""
        return dict(sorted(self._values.items()))

    # -- equality / debugging -----------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Counters):
            return self._values == other._values
        if isinstance(other, dict):
            return self._values == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Counters({self.as_dict()!r})"

    # -- pickling (__slots__ classes need explicit state) ---------------------
    def __getstate__(self) -> dict[str, int]:
        return self._values

    def __setstate__(self, state: dict[str, int]) -> None:
        self._values = dict(state)


class CounterScope:
    """A :class:`Counters` view bound to a dotted namespace prefix."""

    __slots__ = ("_counters", "_prefix")

    def __init__(self, counters: Counters, prefix: str) -> None:
        self._counters = counters
        self._prefix = prefix

    def inc(self, name: str, value: int = 1) -> None:
        self._counters.inc(f"{self._prefix}.{name}", value)

    def scope(self, prefix: str) -> "CounterScope":
        return CounterScope(self._counters, f"{self._prefix}.{prefix}")

    def __repr__(self) -> str:
        return f"CounterScope({self._prefix!r})"
