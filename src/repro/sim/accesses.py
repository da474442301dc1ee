"""Declarative memory-access summaries for DThread cost models.

The TFlux paper's workloads are regular scientific kernels: the memory
behaviour of each DThread is a handful of strided sweeps over named arrays
("the thread reads rows ``i0..i1`` of A, the whole of B, and writes rows
``i0..i1`` of C").  Instead of instruction-level traces, DThreads declare
an :class:`AccessSummary` — an ordered list of :class:`Read`/:class:`Write`
range operations over named :class:`Region` objects.

Both memory models consume summaries:

* :class:`repro.sim.cache.CoherentMemorySystem` expands each range to
  individual cache-line accesses (exact, slow — used for validation and
  small runs);
* :class:`repro.sim.fastcache.FastMemorySystem` processes whole ranges with
  vectorised NumPy state (fast — used for the benchmark sweeps).

Regions live in a :class:`RegionSpace` so that two DThreads naming "B" talk
about the same lines, which is what makes MESI coherence effects (the
paper's MMULT coherency misses, QSORT array hand-off) visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Region", "RegionSpace", "Read", "Write", "AccessSummary"]


@dataclass(frozen=True)
class Region:
    """A named, contiguous allocation in the simulated address space.

    Attributes
    ----------
    name:
        Unique name within its :class:`RegionSpace` (e.g. ``"matrix_B"``).
    size:
        Size in bytes.
    index:
        Dense id assigned by the owning :class:`RegionSpace`; memory models
        use it to key per-region state arrays.
    """

    name: str
    size: int
    index: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region {self.name!r} has non-positive size")

    def lines(self, line_size: int) -> int:
        """Number of cache lines the region spans."""
        return -(-self.size // line_size)


class RegionSpace:
    """Registry of named regions forming one simulated address space."""

    def __init__(self) -> None:
        self._regions: dict[str, Region] = {}

    def region(self, name: str, size: int) -> Region:
        """Create (or fetch, if sizes agree) the region called *name*."""
        existing = self._regions.get(name)
        if existing is not None:
            if existing.size != size:
                raise ValueError(
                    f"region {name!r} re-declared with size {size} != {existing.size}"
                )
            return existing
        reg = Region(name, size, index=len(self._regions))
        self._regions[name] = reg
        return reg

    def get(self, name: str) -> Region:
        return self._regions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions.values())

    def __len__(self) -> int:
        return len(self._regions)


@dataclass(frozen=True)
class _RangeOp:
    """One strided sweep over a byte range of a region.

    ``stride`` is the distance in bytes between consecutive *element*
    accesses; elements of ``elem_size`` bytes are touched starting at
    ``offset``, ``count`` of them.  ``reps`` repeats the whole sweep (e.g.
    an in-place sort passes over its chunk ~log n times); repeated sweeps
    hit in cache if the footprint fits, which the models account for.
    """

    region: Region
    offset: int
    count: int
    elem_size: int = 8
    stride: int = 8
    reps: int = 1
    #: Whether the whole range must be simultaneously resident in a
    #: scratchpad (SPE Local Store) for the DThread to execute, or can be
    #: streamed through it in tiles.  Irrelevant to cache-based machines;
    #: decisive for TFluxCell capacity checks (paper §6.3).
    resident: bool = True

    is_write = False

    def __post_init__(self) -> None:
        if self.count < 0 or self.reps < 0:
            raise ValueError("count/reps must be non-negative")
        if self.elem_size <= 0 or self.stride <= 0:
            raise ValueError("elem_size/stride must be positive")
        if self.offset < 0:
            raise ValueError("offset must be non-negative")
        end = self.offset + (self.count - 1) * self.stride + self.elem_size
        if self.count and end > self.region.size:
            raise ValueError(
                f"access [{self.offset}, {end}) overruns region "
                f"{self.region.name!r} of size {self.region.size}"
            )

    @property
    def bytes_touched(self) -> int:
        """Bytes of distinct elements touched in one sweep."""
        return self.count * self.elem_size

    def line_indices(self, line_size: int) -> range | list[int]:
        """Distinct line numbers (region-relative) touched by one sweep.

        Returns a ``range`` when the sweep is dense (stride <= line size),
        otherwise an explicit sorted list.
        """
        if self.count == 0:
            return range(0)
        first = self.offset // line_size
        last = (self.offset + (self.count - 1) * self.stride + self.elem_size - 1) // line_size
        if self.stride <= line_size:
            return range(first, last + 1)
        seen: set[int] = set()
        for i in range(self.count):
            start = (self.offset + i * self.stride) // line_size
            end = (self.offset + i * self.stride + self.elem_size - 1) // line_size
            seen.update(range(start, end + 1))
        return sorted(seen)


@dataclass(frozen=True)
class Read(_RangeOp):
    """A read sweep."""

    is_write = False


@dataclass(frozen=True)
class Write(_RangeOp):
    """A write sweep."""

    is_write = True


@dataclass
class AccessSummary:
    """Ordered collection of range operations performed by one DThread."""

    ops: list[_RangeOp] = field(default_factory=list)

    def read(
        self,
        region: Region,
        offset: int = 0,
        count: int | None = None,
        *,
        elem_size: int = 8,
        stride: int | None = None,
        reps: int = 1,
        resident: bool = True,
    ) -> "AccessSummary":
        """Append a read sweep; defaults to a sweep of the whole region
        (element count derived from the stride when one is given)."""
        step = stride or elem_size
        if count is None:
            count = max(0, (region.size - offset - elem_size) // step + 1)
        self.ops.append(
            Read(region, offset, count, elem_size, step, reps, resident)
        )
        return self

    def write(
        self,
        region: Region,
        offset: int = 0,
        count: int | None = None,
        *,
        elem_size: int = 8,
        stride: int | None = None,
        reps: int = 1,
        resident: bool = True,
    ) -> "AccessSummary":
        """Append a write sweep; defaults to a sweep of the whole region
        (element count derived from the stride when one is given)."""
        step = stride or elem_size
        if count is None:
            count = max(0, (region.size - offset - elem_size) // step + 1)
        self.ops.append(
            Write(region, offset, count, elem_size, step, reps, resident)
        )
        return self

    def __iter__(self) -> Iterator[_RangeOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def bytes_read(self) -> int:
        return sum(op.bytes_touched * op.reps for op in self.ops if not op.is_write)

    @property
    def bytes_written(self) -> int:
        return sum(op.bytes_touched * op.reps for op in self.ops if op.is_write)
