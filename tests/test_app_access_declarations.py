"""Meta-validation: declared access summaries match what bodies touch.

Cost models are only trustworthy if the declared memory behaviour tracks
the functional behaviour.  These tests compare each app's declared
bytes-read/bytes-written against the array slices its body actually
addresses (computed from the decomposition arithmetic).
"""

import numpy as np
import pytest

from repro.apps import get_benchmark
from repro.apps.common import ProblemSize, chunk_bounds

SIZES = {
    "trapez": ProblemSize("trapez", "S", "t", {"k": 12}),
    "mmult": ProblemSize("mmult", "S", "t", {"n": 32}),
    "qsort": ProblemSize("qsort", "S", "t", {"n": 1500}),
    "susan": ProblemSize("susan", "S", "t", {"w": 64, "h": 32}),
    "fft": ProblemSize("fft", "S", "t", {"n": 16}),
}


def declared(prog):
    """(bytes_read, bytes_written) per instance name, single sweep."""
    env = prog.env
    out = {}
    for inst in prog.expanded().instances:
        s = inst.template.access_summary(env, inst.ctx)
        reads = sum(op.bytes_touched for op in s if not op.is_write)
        writes = sum(op.bytes_touched for op in s if op.is_write)
        out[inst.name] = (reads, writes)
    return out


def test_mmult_rows_declare_exact_bytes():
    prog = get_benchmark("mmult").build(SIZES["mmult"], unroll=4)
    n = 32
    d = declared(prog)
    for i in range(8):  # 32 rows / unroll 4
        lo, hi = chunk_bounds(n, 8, i)
        rows = hi - lo
        reads, writes = d[f"rows[{i}]"]
        assert reads == rows * n * 8 + n * n * 8  # A slice + all of B
        assert writes == rows * n * 8  # C slice


def test_trapez_chunks_write_one_slot():
    prog = get_benchmark("trapez").build(SIZES["trapez"], unroll=8)
    d = declared(prog)
    for name, (reads, writes) in d.items():
        if name.startswith("chunk"):
            assert reads == 0
            assert writes == 8  # one float64 partial


def test_susan_smooth_reads_halo_writes_band():
    size = SIZES["susan"]
    w, h = 64, 32
    prog = get_benchmark("susan").build(size, unroll=8)
    d = declared(prog)
    nthreads = h // 8
    for i in range(nthreads):
        lo, hi = chunk_bounds(h, nthreads, i)
        rlo, rhi = max(lo - 1, 0), min(hi + 1, h)
        reads, writes = d[f"smooth[{i}]"]
        assert reads == (rhi - rlo) * w * 8
        assert writes == (hi - lo) * w * 8


def test_fft_cols_strided_bytes():
    prog = get_benchmark("fft").build(SIZES["fft"], unroll=4)
    n = 16
    d = declared(prog)
    for i in range(n // 4):
        lo, hi = chunk_bounds(n, n // 4, i)
        width = hi - lo
        reads, writes = d[f"fft_cols[{i}]"]
        # reps multiply the bytes a DMA price reads but not our
        # single-sweep count here: the strided op touches n slabs of
        # width*16 bytes.
        assert reads == n * width * 16
        assert writes == n * width * 16


def test_qsort_sort_covers_whole_array():
    prog = get_benchmark("qsort").build(SIZES["qsort"], unroll=64)
    d = declared(prog)
    n = 1500
    total_sorted = sum(
        w for name, (_r, w) in d.items() if name.startswith("sort[")
    )
    assert total_sorted == n * 8  # every element written exactly once


@pytest.mark.parametrize("name", sorted(SIZES))
def test_declared_writes_cover_produced_arrays(name):
    """Every array an app produces must be written by some declaration."""
    bench = get_benchmark(name)
    prog = bench.build(SIZES[name], unroll=4)
    env = prog.env
    written = set()
    for inst in prog.expanded().instances:
        for op in inst.template.access_summary(env, inst.ctx):
            if op.is_write:
                written.add(op.region.name)
    for section in prog.prologue:
        if section.accesses is not None:
            for op in section.accesses(env):
                if op.is_write:
                    written.add(op.region.name)
    produced = {
        "trapez": {"parts"},
        "mmult": {"A", "B", "C"},
        "qsort": {"data", "tmp"},
        "susan": {"img", "sm", "out"},
        "fft": {"X", "parts"},
    }[name]
    assert produced <= written
