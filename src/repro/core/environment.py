"""Shared-data environment for DDM programs.

The runtime has to "provide a way for the different DThreads of the DDM
application to access the shared variables used in the producer-consumer
relationships" (paper §3.1).  :class:`Environment` is that mechanism: a
named store of NumPy arrays and scalar variables shared by all DThreads.

Each array is also registered as a :class:`~repro.sim.accesses.Region` so
the timing layer can model its cache behaviour; scalar variables are
grouped into a single small "scalars" region (they share cache lines, as
globals do in the C original).
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.sim.accesses import Region, RegionSpace

__all__ = ["Environment"]

_SCALARS_REGION_BYTES = 4096
#: Byte slot reserved per scalar inside the shared scalars region.  Gives
#: each scalar a distinct, stable address for access attribution (the
#: race checker); with more than 512 scalars, slots wrap and alias.
_SCALAR_SLOT_BYTES = 8


class Environment:
    """Named shared variables and arrays for one DDM program run."""

    def __init__(self) -> None:
        self.regions = RegionSpace()
        self._arrays: dict[str, np.ndarray] = {}
        self._scalars: dict[str, Any] = {}
        self._scalar_offsets: dict[str, int] = {}
        # All scalar shared variables live in one small region.
        self._scalars_region = self.regions.region("__scalars__", _SCALARS_REGION_BYTES)

    # -- arrays ------------------------------------------------------------
    def alloc(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Allocate a named shared array (and its cache region)."""
        if name in self._arrays or name in self._scalars:
            raise KeyError(f"environment name {name!r} already in use")
        arr = np.zeros(shape, dtype=dtype)
        self.regions.region(name, max(int(arr.nbytes), 1))
        self._arrays[name] = arr
        return arr

    def adopt(self, name: str, arr: np.ndarray) -> np.ndarray:
        """Register an existing array as a shared variable."""
        if name in self._arrays or name in self._scalars:
            raise KeyError(f"environment name {name!r} already in use")
        arr = np.asarray(arr)
        self.regions.region(name, max(int(arr.nbytes), 1))
        self._arrays[name] = arr
        return arr

    def array(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def region(self, name: str) -> Region:
        """Region backing the named array (or the shared scalars region)."""
        if name in self._arrays:
            return self.regions.get(name)
        if name in self._scalars:
            return self._scalars_region
        raise KeyError(name)

    def scalar_offset(self, name: str) -> int:
        """Stable byte offset of the named scalar inside ``__scalars__``.

        Slots are assigned in first-use order, :data:`_SCALAR_SLOT_BYTES`
        apart, wrapping within the region.  Purely an attribution aid —
        the timing layer keeps pricing scalars as whole-region traffic,
        so cycle counts are untouched by slot assignment.
        """
        off = self._scalar_offsets.get(name)
        if off is None:
            off = (
                len(self._scalar_offsets) * _SCALAR_SLOT_BYTES
            ) % _SCALARS_REGION_BYTES
            self._scalar_offsets[name] = off
        return off

    # -- scalars -------------------------------------------------------------
    def set(self, name: str, value: Any) -> None:
        if name in self._arrays:
            raise KeyError(f"{name!r} is an array; assign into it instead")
        self._scalars[name] = value

    def get(self, name: str) -> Any:
        """An array or scalar by name; ``None`` for an unset scalar."""
        if name in self._arrays:
            return self._arrays[name]
        return self._scalars.get(name)

    # -- mapping conveniences ---------------------------------------------------
    def __getitem__(self, name: str) -> Any:
        if name in self._arrays:
            return self._arrays[name]
        return self._scalars[name]

    def __setitem__(self, name: str, value: Any) -> None:
        if isinstance(value, np.ndarray) and name not in self._scalars:
            if name in self._arrays:
                if self._arrays[name].shape != value.shape:
                    raise ValueError(
                        f"shape mismatch assigning array {name!r}; "
                        "write into the existing buffer instead"
                    )
                self._arrays[name][...] = value
            else:
                self.adopt(name, value)
        else:
            if name in self._arrays:
                raise KeyError(f"{name!r} is an array; assign into it instead")
            self._scalars[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._arrays or name in self._scalars

    def names(self) -> Iterator[str]:
        yield from self._arrays
        yield from self._scalars

    def __repr__(self) -> str:
        return (
            f"<Environment arrays={list(self._arrays)} "
            f"scalars={list(self._scalars)}>"
        )
