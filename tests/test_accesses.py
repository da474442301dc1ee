"""Unit and property tests for the declarative access-summary language."""

import pytest
from hypothesis import example, given, strategies as st

from repro.sim.accesses import AccessSummary, Read, Region, RegionSpace, Write


@pytest.fixture
def space():
    return RegionSpace()


def test_region_registration(space):
    a = space.region("A", 1024)
    assert a.name == "A" and a.size == 1024 and a.index == 0
    b = space.region("B", 2048)
    assert b.index == 1
    assert len(space) == 2


def test_region_redeclare_same_size_ok(space):
    a1 = space.region("A", 1024)
    a2 = space.region("A", 1024)
    assert a1 is a2


def test_region_redeclare_different_size_rejected(space):
    space.region("A", 1024)
    with pytest.raises(ValueError):
        space.region("A", 2048)


def test_region_zero_size_rejected(space):
    with pytest.raises(ValueError):
        space.region("Z", 0)


def test_region_line_count(space):
    a = space.region("A", 1000)
    assert a.lines(64) == 16  # ceil(1000/64)


def test_read_overrun_rejected(space):
    a = space.region("A", 64)
    with pytest.raises(ValueError):
        Read(a, offset=0, count=9, elem_size=8, stride=8)


def test_dense_line_indices(space):
    a = space.region("A", 1024)
    op = Read(a, offset=0, count=128, elem_size=8, stride=8)
    assert list(op.line_indices(64)) == list(range(16))


def test_offset_line_indices(space):
    a = space.region("A", 1024)
    op = Read(a, offset=256, count=16, elem_size=8, stride=8)
    assert list(op.line_indices(64)) == [4, 5]


def test_strided_line_indices(space):
    # Column access: 8-byte elements every 256 bytes -> one line each.
    a = space.region("A", 64 * 256)
    op = Read(a, offset=0, count=64, elem_size=8, stride=256)
    idx = op.line_indices(64)
    assert list(idx) == [i * 4 for i in range(64)]


def test_element_spanning_two_lines(space):
    a = space.region("A", 256)
    op = Read(a, offset=60, count=1, elem_size=8, stride=8)
    assert list(op.line_indices(64)) == [0, 1]


def test_empty_op(space):
    a = space.region("A", 64)
    op = Read(a, offset=0, count=0)
    assert len(list(op.line_indices(64))) == 0
    assert op.bytes_touched == 0


def test_summary_builder(space):
    a = space.region("A", 1024)
    b = space.region("B", 512)
    s = AccessSummary().read(a).write(b, reps=2)
    assert len(s) == 2
    assert [(op.is_write, op.bytes_touched, op.reps) for op in s] == [
        (False, 1024, 1),
        (True, 512, 2),
    ]


def test_summary_default_count_respects_offset(space):
    a = space.region("A", 1024)
    s = AccessSummary().read(a, offset=512)
    assert s.ops[0].count == 64  # (1024-512)/8


@given(
    size=st.integers(min_value=64, max_value=1 << 16),
    offset_frac=st.floats(min_value=0, max_value=0.5),
    line=st.sampled_from([32, 64, 128]),
)
def test_line_indices_within_region(size, offset_frac, line):
    """Every produced line index addresses a line inside the region."""
    space = RegionSpace()
    region = space.region("R", size)
    offset = int(offset_frac * size) // 8 * 8
    count = (size - offset) // 8
    op = Read(region, offset=offset, count=count, elem_size=8, stride=8)
    idx = list(op.line_indices(line))
    nlines = region.lines(line)
    assert all(0 <= i < nlines for i in idx)
    # Dense sweeps touch contiguous lines.
    if idx:
        assert idx == list(range(idx[0], idx[-1] + 1))


@given(
    count=st.integers(min_value=1, max_value=200),
    stride=st.sampled_from([8, 16, 64, 128, 512]),
    line=st.sampled_from([64, 128]),
)
def test_strided_line_count_bounds(count, stride, line):
    """A sweep touches at least the footprint's lines and at most count*2."""
    space = RegionSpace()
    region = space.region("R", stride * count + 16)
    op = Read(region, offset=0, count=count, elem_size=8, stride=stride)
    idx = list(op.line_indices(line))
    span_lines = (stride * (count - 1) + 8 - 1) // line + 1
    assert 1 <= len(idx) <= 2 * count
    assert len(idx) <= span_lines + 1
    assert sorted(set(idx)) == sorted(idx) or isinstance(idx, range)


def test_wide_element_strided_includes_interior_lines(space):
    """Regression: an element spanning >2 cache lines must count every
    line it touches (FFT's column slabs are 256B = 4 x 64B lines)."""
    a = space.region("W", 8 * 2048)
    op = Read(a, offset=0, count=8, elem_size=256, stride=2048)
    idx = list(op.line_indices(64))
    expected = sorted(
        line for e in range(8) for line in range(e * 32, e * 32 + 4)
    )
    assert idx == expected


def test_default_count_with_stride(space):
    """Regression: .read(region, stride=...) without count must not
    overrun the region (count derives from the stride)."""
    a = space.region("S2", 1024)
    s = AccessSummary().read(a, stride=128)
    assert s.ops[0].count == 8  # elements at 0,128,...,896 (+8B each)
    s2 = AccessSummary().read(a, offset=512, stride=128)
    assert s2.ops[0].count == 4


def _walked_lines(op, line_size):
    """The reference: every line of every element, walked one by one."""
    seen = set()
    for i in range(op.count):
        start = op.offset + i * op.stride
        seen.update(range(start // line_size, (start + op.elem_size - 1) // line_size + 1))
    return sorted(seen)


@given(
    offset=st.integers(min_value=0, max_value=300),
    count=st.integers(min_value=0, max_value=60),
    elem_size=st.integers(min_value=1, max_value=600),
    stride_lines=st.integers(min_value=0, max_value=5),
    stride_extra=st.sampled_from([0, 0, 0, 8, 24, 40, 63]),
    line=st.sampled_from([64, 128]),
)
# one of each route: dense, whole-line elements apart, whole-line
# elements reaching each other, off the line grid
@example(offset=8, count=20, elem_size=8, stride_lines=0, stride_extra=40, line=64)
@example(offset=48, count=4, elem_size=32, stride_lines=4, stride_extra=0, line=64)
@example(offset=0, count=3, elem_size=128, stride_lines=2, stride_extra=0, line=64)
@example(offset=8, count=5, elem_size=8, stride_lines=1, stride_extra=24, line=64)
def test_line_indices_match_the_element_walk(
    offset, count, elem_size, stride_lines, stride_extra, line
):
    """Every route of ``line_indices`` — dense range, whole-line closed
    form (elements apart or reaching each other), element walk — lists
    exactly the lines the reference walk touches, sorted, as a list
    whenever the sweep is strided.  Offsets, elements straddling a line,
    elements longer than a line or than the stride and strides off the
    line grid are all drawn."""
    stride = max(1, stride_lines * line + stride_extra)
    space = RegionSpace()
    region = space.region("R", offset + max(0, count - 1) * stride + elem_size)
    op = Read(region, offset=offset, count=count, elem_size=elem_size, stride=stride)
    got = op.line_indices(line)
    assert list(got) == _walked_lines(op, line)
    if stride > line and count:
        assert type(got) is list and all(type(i) is int for i in got)
