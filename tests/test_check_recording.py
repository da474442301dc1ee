"""The recording layer of the dynamic race detector (repro.check).

Two properties pinned here:

* **Exactness** — :class:`RecordingArray` footprints equal the byte
  intervals the real NumPy operation touches, for every index kind the
  apps use (slices, strides, rows, columns, fancy/boolean, scalars),
  with conservative whole-array fallbacks only where element selection
  is invisible (coercion, ufuncs, reductions, mutating methods);
* **Functional transparency** — every operation through the wrapper
  computes the same values and mutates the same backing array as the
  raw Environment would.

Plus the satellite pieces: per-name scalar offsets inside the
``__scalars__`` region, and ``intervals_difference``, the per-record
reference the checker's grouped declared-vs-observed difference is held
to (``tests/test_conflict_sweep.py``).
"""

import numpy as np
import pytest

from repro.check.recording import (
    SCALARS_REGION,
    AccessSink,
    CheckedEnvironment,
    RecordingArray,
)
from repro.core import ProgramBuilder
from repro.core.environment import _SCALAR_SLOT_BYTES
from repro.core.regions import EMPTY_INTERVALS
from tests.test_checker_sweeps import intervals_difference


class CaptureSink(AccessSink):
    """Flat list of (region, [(lo, hi), ...], is_write) tuples."""

    def __init__(self):
        self.ops = []

    def record(self, region, intervals, is_write):
        self.ops.append(
            (region, [(int(lo), int(hi)) for lo, hi in intervals], bool(is_write))
        )

    def reads(self, region=None):
        return [iv for r, iv, w in self.ops if not w and region in (None, r)]

    def writes(self, region=None):
        return [iv for r, iv, w in self.ops if w and region in (None, r)]


def wrapped(base):
    sink = CaptureSink()
    return RecordingArray(base, "a", sink), sink


# -- intervals_difference (the per-record coverage reference) ------------------
def test_intervals_difference_punches_holes():
    a = np.array([[0, 10]], dtype=np.int64)
    b = np.array([[3, 5]], dtype=np.int64)
    np.testing.assert_array_equal(intervals_difference(a, b), [[0, 3], [5, 10]])


def test_intervals_difference_disjoint_and_covered():
    a = np.array([[0, 4], [8, 12]], dtype=np.int64)
    np.testing.assert_array_equal(
        intervals_difference(a, np.array([[4, 8]], dtype=np.int64)), a
    )
    assert len(intervals_difference(a, np.array([[0, 12]], dtype=np.int64))) == 0


def test_intervals_difference_empty_operands():
    a = np.array([[0, 4]], dtype=np.int64)
    assert len(intervals_difference(EMPTY_INTERVALS, a)) == 0
    np.testing.assert_array_equal(intervals_difference(a, EMPTY_INTERVALS), a)


# -- exact footprints ----------------------------------------------------------
def test_contiguous_slice_read_is_exact():
    ra, sink = wrapped(np.arange(8.0))
    out = ra[2:5]
    np.testing.assert_array_equal(out, [2.0, 3.0, 4.0])
    assert sink.ops == [("a", [(16, 40)], False)]


def test_strided_slice_enumerates_elements():
    ra, sink = wrapped(np.arange(8.0))
    ra[::2]
    assert sink.reads("a") == [[(0, 8), (16, 24), (32, 40), (48, 56)]]


def test_negative_step_is_the_same_bytes():
    ra, sink = wrapped(np.arange(8.0))
    ra[::-1]
    assert sink.reads("a") == [[(0, 64)]]


def test_row_and_column_of_2d():
    base = np.arange(16.0).reshape(4, 4)
    ra, sink = wrapped(base)
    ra[1]
    ra[:, 1]
    assert sink.reads("a") == [
        [(32, 64)],
        [(8, 16), (40, 48), (72, 80), (104, 112)],
    ]


def test_scalar_and_fancy_index():
    ra, sink = wrapped(np.arange(8.0))
    assert ra[2] == 2.0
    ra[[0, 3, 3]]
    ra[np.arange(8) % 2 == 1]  # boolean mask: odd elements
    assert sink.reads("a") == [
        [(16, 24)],
        [(0, 8), (24, 32)],
        [(8, 16), (24, 32), (40, 48), (56, 64)],
    ]


@pytest.mark.parametrize(
    "make_base",
    [
        lambda: np.arange(30.0).reshape(5, 6),                  # owns its memory
        lambda: np.arange(120.0).reshape(10, 12)[::2, ::2],     # sliced view
        lambda: np.arange(30.0).reshape(5, 6)[::-1, ::-1],      # negative strides
        lambda: np.asfortranarray(np.arange(30.0).reshape(5, 6)),
        lambda: np.arange(30.0).reshape(6, 5).T,                # Fortran-order view
    ],
    ids=["owner", "sliced", "negative", "fortran", "transposed"],
)
def test_integer_index_is_exact_without_position_grid(make_base):
    """An all-integer index records exactly its element's bytes from the
    view geometry; the ``base.size`` int64 position grid (larger than a
    float32 array itself) is for fancy/boolean indices only."""
    base = make_base()
    ra, sink = wrapped(base)
    expected = base.copy()

    def element(i, j):
        off = i * base.strides[0] + j * base.strides[1]
        return [(off, off + base.itemsize)]

    assert ra[2, 3] == expected[2, 3]
    assert ra[(4, 0)] == expected[4, 0]
    assert ra[-1, -2] == expected[-1, -2]
    assert ra[np.int64(1), 5] == expected[1, 5]
    ra[3, 1] = -7.0
    assert base[3, 1] == -7.0
    assert sink.ops == [
        ("a", element(2, 3), False),
        ("a", element(4, 0), False),
        ("a", element(4, 4), False),
        ("a", element(1, 5), False),
        ("a", element(3, 1), True),
    ]
    row = ra[1]  # a partial integer index is a view: same path
    np.testing.assert_array_equal(row, expected[1])
    assert ra._posgrid is None

    ra[[0, 2], 1]  # only a genuinely fancy index builds the grid
    assert ra._posgrid is not None
    assert sink.reads("a")[-1] == sorted(element(0, 1) + element(2, 1))


def test_integer_index_of_1d_leaves_position_grid_unset():
    ra, sink = wrapped(np.arange(8, dtype=np.float32))
    assert ra[5] == 5.0
    ra[-8] = 9.0
    assert sink.ops == [("a", [(20, 24)], False), ("a", [(0, 4)], True)]
    assert ra._posgrid is None


def test_write_records_and_mutates():
    base = np.zeros(4)
    ra, sink = wrapped(base)
    ra[1:3] = 5.0
    assert sink.ops == [("a", [(8, 24)], True)]
    np.testing.assert_array_equal(base, [0.0, 5.0, 5.0, 0.0])


def test_empty_selection_records_nothing():
    ra, sink = wrapped(np.arange(4.0))
    ra[2:2]
    assert sink.ops == []


# -- conservative fallbacks ----------------------------------------------------
def test_coercion_and_ufuncs_are_whole_reads():
    ra, sink = wrapped(np.arange(4.0))
    np.testing.assert_array_equal(np.asarray(ra), np.arange(4.0))
    np.testing.assert_array_equal(np.add(ra, 1.0), np.arange(1.0, 5.0))
    assert sink.ops == [("a", [(0, 32)], False)] * 2


def test_ufunc_out_target_is_a_whole_write():
    base = np.arange(4.0)
    ra, sink = wrapped(base)
    np.add(ra, 1.0, out=ra)
    assert ("a", [(0, 32)], True) in sink.ops
    np.testing.assert_array_equal(base, np.arange(1.0, 5.0))


def test_inplace_operator_is_read_plus_write_and_stays_wrapped():
    base = np.ones(4)
    ra, sink = wrapped(base)
    ra += 2.0
    assert isinstance(ra, RecordingArray)
    assert ("a", [(0, 32)], False) in sink.ops
    assert ("a", [(0, 32)], True) in sink.ops
    np.testing.assert_array_equal(base, [3.0] * 4)


def test_reductions_read_mutators_read_write():
    base = np.arange(4.0)
    ra, sink = wrapped(base)
    assert ra.sum() == 6.0
    assert sink.ops == [("a", [(0, 32)], False)]
    sink.ops.clear()
    ra.fill(0.0)
    assert sink.ops == [("a", [(0, 32)], False), ("a", [(0, 32)], True)]
    np.testing.assert_array_equal(base, np.zeros(4))


def test_metadata_records_nothing():
    ra, sink = wrapped(np.arange(6.0).reshape(2, 3))
    assert ra.shape == (2, 3)
    assert ra.dtype == np.float64
    assert len(ra) == 2
    assert ra.size == 6
    assert sink.ops == []


# -- CheckedEnvironment: scalars and array hand-out ----------------------------
def test_scalar_offsets_are_stable_and_distinct():
    env = ProgramBuilder("s").env
    off_x = env.scalar_offset("x")
    off_y = env.scalar_offset("y")
    assert off_x != off_y
    assert env.scalar_offset("x") == off_x  # stable across calls
    assert off_y - off_x == _SCALAR_SLOT_BYTES


def test_checked_env_records_scalar_traffic_per_name():
    env = ProgramBuilder("s").env
    sink = CaptureSink()
    cenv = CheckedEnvironment(env, sink)
    cenv.set("x", 1.0)
    assert cenv.get("x") == 1.0
    cenv["y"] = 2.0
    assert cenv["y"] == 2.0
    ox, oy = env.scalar_offset("x"), env.scalar_offset("y")
    assert sink.ops == [
        (SCALARS_REGION, [(ox, ox + _SCALAR_SLOT_BYTES)], True),
        (SCALARS_REGION, [(ox, ox + _SCALAR_SLOT_BYTES)], False),
        (SCALARS_REGION, [(oy, oy + _SCALAR_SLOT_BYTES)], True),
        (SCALARS_REGION, [(oy, oy + _SCALAR_SLOT_BYTES)], False),
    ]


def test_checked_env_wraps_arrays_and_records_through_them():
    b = ProgramBuilder("s")
    base = b.env.alloc("a", 4)
    sink = CaptureSink()
    cenv = CheckedEnvironment(b.env, sink)
    arr = cenv.array("a")
    assert isinstance(arr, RecordingArray)
    assert cenv["a"] is arr  # item access hands out the same wrapper
    assert sink.ops == []  # handing out the wrapper is not traffic
    arr[0] = 7.0
    assert base[0] == 7.0
    assert sink.ops == [("a", [(0, 8)], True)]


def test_checked_env_whole_array_assignment_is_a_whole_write():
    b = ProgramBuilder("s")
    b.env.alloc("a", 4)
    sink = CaptureSink()
    cenv = CheckedEnvironment(b.env, sink)
    cenv["a"] = np.ones(4)
    assert sink.ops == [("a", [(0, 32)], True)]
    np.testing.assert_array_equal(b.env.array("a"), np.ones(4))


def test_unknown_dunder_probe_does_not_leak_the_base():
    ra, _ = wrapped(np.arange(4.0))
    with pytest.raises(AttributeError):
        ra.__deepcopy__
