"""Access recording: instrumented Environment and array views.

The functional side of every backend runs DThread bodies against the
shared :class:`~repro.core.environment.Environment`.  For dynamic race
checking the body must instead see a :class:`CheckedEnvironment`, which
hands out :class:`RecordingArray` wrappers: every read and write through
them is logged as canonical byte intervals (:mod:`repro.core.regions`)
attributed to the DThread instance currently executing on the calling
OS thread.  The common single-interval access reaches the sink as two
plain ints (:meth:`AccessSink.record_span`), never as an array.

Two properties matter:

* **Exactness** — footprints are computed from the actual NumPy view
  geometry (pointer delta + shape/strides; an all-integer index is the
  strides' dot product with its indices; only fancy/boolean indices fall
  back to an index grid), never over-approximated, so the checker can
  hold observed footprints to the *declared* ``AccessSummary`` without
  false positives on the shipped apps.
* **Functional transparency** — wrappers delegate every operation to the
  raw backing array and return raw NumPy objects, so bodies compute
  bit-identical results; nothing here touches the timing layer at all.

Operations whose element selection the wrapper cannot see (reductions,
``copy``/``astype``, coercion via ``__array__``, opaque methods) are
conservatively recorded as whole-array reads; mutating methods
(``fill``, ``sort`` …) as whole-array read+write.  Scalars record at the
per-name offsets of :meth:`Environment.scalar_offset` inside the shared
``__scalars__`` region.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

import numpy as np

from repro.core.environment import _SCALAR_SLOT_BYTES, Environment
from repro.core.regions import merge_intervals

__all__ = ["AccessSink", "RecordingArray", "CheckedEnvironment"]

#: Scalars region name (shared with Environment).
SCALARS_REGION = "__scalars__"

#: ndarray attributes that reveal no element values — forwarded without
#: recording anything.
_METADATA_ATTRS = frozenset(
    {
        "shape",
        "dtype",
        "ndim",
        "size",
        "nbytes",
        "itemsize",
        "strides",
        "flags",
        "base",
        "__len__",
    }
)

#: ndarray methods that mutate in place — recorded as a whole-array
#: read+write (their element selection is not visible to the wrapper).
_MUTATING_ATTRS = frozenset(
    {"fill", "sort", "partition", "put", "itemset", "setfield", "resize"}
)


class AccessSink:
    """Receiver for recorded operations.

    The instrumentation session provides one; it resolves the current
    DThread instance from thread-local state and appends the op.  A sink
    with no current instance swallows ops (accesses from outside any
    instrumented body: prologue/epilogue, verification code).
    """

    def record(self, region: str, intervals: np.ndarray, is_write: bool) -> None:
        """One op touching canonical ``(k, 2)`` byte *intervals*."""
        raise NotImplementedError

    def record_span(self, region: str, lo: int, hi: int, is_write: bool) -> None:
        """One op touching the single byte interval ``[lo, hi)`` — the
        common case, handed over as plain ints."""
        self.record(region, np.array([[lo, hi]], dtype=np.int64), is_write)


def _record_strided(
    sink: AccessSink, region: str, offset: int, shape: tuple, strides: tuple,
    itemsize: int, is_write: bool,
) -> None:
    """Record the bytes of a strided view at *offset* bytes.

    Contiguous (and overlapping) dimensions are absorbed into a single
    run; a view that is one run is recorded as a span, otherwise the
    remaining outer dimensions are enumerated and merged.
    """
    start = int(offset)
    dims: list[tuple[int, int]] = []
    for n, st in zip(shape, strides):
        n, st = int(n), int(st)
        if n == 0:
            return
        if n == 1 or st == 0:
            continue  # length-1 and broadcast dims revisit the same bytes
        if st < 0:
            start += st * (n - 1)
            st = -st
        dims.append((n, st))
    dims.sort(key=lambda d: d[1])
    run = itemsize
    outer: list[tuple[int, int]] = []
    for n, st in dims:
        if st <= run:
            run = st * (n - 1) + run
        else:
            outer.append((n, st))
    if not outer:
        sink.record_span(region, start, start + run, is_write)
        return
    starts = np.zeros(1, dtype=np.int64)
    for n, st in outer:
        starts = (
            starts[:, None] + np.arange(n, dtype=np.int64)[None, :] * st
        ).ravel()
    iv = np.stack([start + starts, start + starts + run], axis=1)
    sink.record(region, merge_intervals(iv), is_write)


class RecordingArray:
    """Exact-footprint recording wrapper around one shared array.

    Indexing returns *raw* NumPy objects (views or copies) — recording
    covers the first touch through the Environment; subsequent local
    manipulation of the returned view is the body's private business
    until it writes back through the wrapper.
    """

    def __init__(self, base: np.ndarray, region: str, sink: AccessSink) -> None:
        self._base = base
        self._region = region
        self._sink = sink
        self._addr = base.__array_interface__["data"][0]
        # What a view of *base* names as its ``.base``: NumPy collapses
        # view chains to the array that owns the memory.
        self._owner = base.base if type(base.base) is type(base) else base
        # Lazily built map from C-order element position to byte offset,
        # for fancy/boolean indexing only (it is as large as the array).
        self._posgrid: Optional[np.ndarray] = None

    # -- footprint recording --------------------------------------------------
    def _record_selection(self, index: Any, out: Any, is_write: bool) -> None:
        """Record the bytes ``base[index]`` (already taken: *out*) selects,
        exactly, for any index kind."""
        base = self._base
        if not isinstance(out, np.ndarray):
            # An all-integer index picked one element: its byte offset is
            # the strides' dot product with the (wrapped) indices.
            off = 0
            for i, n, st in zip(
                index if isinstance(index, tuple) else (index,),
                base.shape,
                base.strides,
            ):
                i = int(i)
                off += (i + n if i < 0 else i) * st
            self._sink.record_span(self._region, off, off + base.itemsize, is_write)
            return
        if out.base is self._owner:
            # Basic indexing: a strided view straight into the backing
            # array — the footprint is its exact geometry.
            off = out.__array_interface__["data"][0] - self._addr
            _record_strided(
                self._sink, self._region, off, out.shape, out.strides,
                out.itemsize, is_write,
            )
            return
        # Fancy-index copy: recover element positions through an index
        # grid, then map positions to byte offsets.
        if self._posgrid is None:
            self._posgrid = np.arange(base.size, dtype=np.int64).reshape(base.shape)
        pos = np.asarray(self._posgrid[index]).ravel()
        if pos.size == 0:
            return
        idx = np.unravel_index(pos, base.shape)
        byte = np.zeros(pos.size, dtype=np.int64)
        for comp, st in zip(idx, base.strides):
            byte += comp.astype(np.int64) * int(st)
        self._sink.record(
            self._region,
            merge_intervals(np.stack([byte, byte + base.itemsize], axis=1)),
            is_write,
        )

    def _record_whole(self, is_write: bool) -> None:
        self._sink.record_span(
            self._region, 0, max(int(self._base.nbytes), 1), is_write
        )

    # -- element access -------------------------------------------------------
    def __getitem__(self, index: Any) -> Any:
        out = self._base[index]
        self._record_selection(index, out, is_write=False)
        return out

    def __setitem__(self, index: Any, value: Any) -> None:
        try:
            selected = self._base[index]
        except Exception:
            pass  # let the failing assignment raise from the real operation
        else:
            self._record_selection(index, selected, is_write=True)
        self._base[index] = _unwrap(value)

    def __len__(self) -> int:
        return len(self._base)

    def __iter__(self) -> Iterator[Any]:
        self._record_whole(is_write=False)
        return iter(self._base)

    def __contains__(self, item: Any) -> bool:
        self._record_whole(is_write=False)
        return _unwrap(item) in self._base

    # -- NumPy interop --------------------------------------------------------
    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # np.asarray / operator coercion: the whole array may be read.
        self._record_whole(is_write=False)
        out = self._base
        if dtype is not None:
            out = out.astype(dtype, copy=False)
        if copy:
            out = out.copy()
        return out

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """Route ufunc calls to the raw arrays, recording participation.

        Wrapped inputs count as whole-array reads; a wrapped ``out=``
        target as a whole-array write.
        """
        raw_inputs = []
        for x in inputs:
            if isinstance(x, RecordingArray):
                x._record_whole(is_write=False)
                raw_inputs.append(x._base)
            else:
                raw_inputs.append(x)
        out = kwargs.get("out")
        if out is not None:
            raw_out = []
            for x in out if isinstance(out, tuple) else (out,):
                if isinstance(x, RecordingArray):
                    x._record_whole(is_write=True)
                    raw_out.append(x._base)
                else:
                    raw_out.append(x)
            kwargs["out"] = tuple(raw_out)
        return getattr(ufunc, method)(*raw_inputs, **kwargs)

    # In-place operators mutate the backing array (never rebind to a raw
    # result, which would silently detach the shared variable).
    def __iadd__(self, other):
        return self._inplace(np.add, other)

    def __isub__(self, other):
        return self._inplace(np.subtract, other)

    def __imul__(self, other):
        return self._inplace(np.multiply, other)

    def __itruediv__(self, other):
        return self._inplace(np.true_divide, other)

    def _inplace(self, ufunc, other) -> "RecordingArray":
        self._record_whole(is_write=False)
        self._record_whole(is_write=True)
        ufunc(self._base, _unwrap(other), out=self._base)
        return self

    def __getattr__(self, name: str) -> Any:
        base = object.__getattribute__(self, "_base")
        if name in _METADATA_ATTRS:
            return getattr(base, name)
        if name in _MUTATING_ATTRS:
            self._record_whole(is_write=False)
            self._record_whole(is_write=True)
            return getattr(base, name)
        if name.startswith("__") and name.endswith("__"):
            # Unknown dunder probes (copy protocol, pickling, …) must not
            # silently resolve to the base array's implementation.
            raise AttributeError(name)
        # Reductions, copies, astype, tolist, … — element values escape,
        # element selection is invisible: a conservative whole read.
        self._record_whole(is_write=False)
        return getattr(base, name)

    def __repr__(self) -> str:
        return f"<RecordingArray {self._region!r} {self._base.shape}>"


def _unwrap(value: Any) -> Any:
    return value._base if isinstance(value, RecordingArray) else value


class CheckedEnvironment:
    """Environment facade handing bodies recording array views.

    Mirrors the full :class:`Environment` surface DThread bodies use
    (``array``/``get``/``set``/item access/``region``/``names``); array
    results come back wrapped, scalar traffic is recorded at per-name
    byte offsets inside ``__scalars__``.  Allocation (``alloc``/
    ``adopt``) forwards unrecorded — creating a variable is graph
    construction, not shared-data traffic.
    """

    def __init__(self, env: Environment, sink: AccessSink) -> None:
        self._env = env
        self._sink = sink
        self._wrapped: dict[str, RecordingArray] = {}

    # -- plumbing -------------------------------------------------------------
    @property
    def raw(self) -> Environment:
        return self._env

    def _wrap(self, name: str) -> RecordingArray:
        arr = self._env._arrays[name]
        wrapped = self._wrapped.get(name)
        if wrapped is None or wrapped._base is not arr:
            wrapped = RecordingArray(arr, name, self._sink)
            self._wrapped[name] = wrapped
        return wrapped

    def _record_scalar(self, name: str, is_write: bool) -> None:
        off = self._env.scalar_offset(name)
        self._sink.record_span(
            SCALARS_REGION, off, off + _SCALAR_SLOT_BYTES, is_write
        )

    # -- arrays ---------------------------------------------------------------
    def alloc(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        return self._env.alloc(name, shape, dtype)

    def adopt(self, name: str, arr: np.ndarray) -> np.ndarray:
        return self._env.adopt(name, _unwrap(arr))

    def array(self, name: str) -> RecordingArray:
        return self._wrap(name)

    def region(self, name: str):
        return self._env.region(name)

    @property
    def regions(self):
        return self._env.regions

    # -- scalars --------------------------------------------------------------
    def set(self, name: str, value: Any) -> None:
        self._env.set(name, _unwrap(value))
        self._record_scalar(name, is_write=True)

    def get(self, name: str) -> Any:
        if name in self._env._arrays:
            return self._wrap(name)
        self._record_scalar(name, is_write=False)
        return self._env.get(name)

    # -- mapping conveniences -------------------------------------------------
    def __getitem__(self, name: str) -> Any:
        if name in self._env._arrays:
            return self._wrap(name)
        value = self._env[name]
        self._record_scalar(name, is_write=False)
        return value

    def __setitem__(self, name: str, value: Any) -> None:
        value = _unwrap(value)
        if isinstance(value, np.ndarray) and name in self._env._arrays:
            # Whole-array assignment into an existing shared array.
            self._sink.record_span(
                name, 0, max(int(self._env._arrays[name].nbytes), 1), is_write=True
            )
            self._env[name] = value
            return
        self._env[name] = value
        if name in self._env._arrays:
            return  # adopted a brand-new array: allocation, not traffic
        self._record_scalar(name, is_write=True)

    def __contains__(self, name: str) -> bool:
        return name in self._env

    def names(self):
        return self._env.names()

    def __repr__(self) -> str:
        return f"<CheckedEnvironment {self._env!r}>"
