"""The input/oracle memo cannot weaken verification.

``apps/common.py::memo_readonly`` keeps each app's generated inputs and
oracle arrays across jobs.  What that must never do: hand two runs the
same buffer, let a run write into what a later ``verify`` compares
against, turn a failing ``verify`` into a passing one, or grow without
bound.  Every case runs all seven apps at sizes small and large.
"""

import numpy as np
import pytest

from repro.apps import BENCHMARKS, fft, get_benchmark, mmult, problem_sizes, qsort, susan
from repro.apps.common import MEMO_SIZE, TARGETS

#: Every memoised function, by the app whose build/verify calls it; each
#: takes the app's size parameters in Table-1 order.
MEMOS = {
    "fft": (fft.initial_matrix, fft._spectrum),
    "mmult": (mmult._make_inputs, mmult._product),
    "qsort": (qsort.permutation,),
    "qsort_rec": (qsort.permutation,),
    "quad": (),
    "susan": (susan.synthetic_image, susan._expected),
    "trapez": (),
}
ALL_MEMOS = sorted({fn for fns in MEMOS.values() for fn in fns}, key=lambda fn: fn.__name__)
CASES = [(name, label) for name in sorted(BENCHMARKS) for label in ("small", "large")]
#: What the memo may keep alive once every Large cell of Table 1 has run
#: (measured 36.0 MiB: MMULT n=1024 is 24 of them).
LARGE_GRID_MEMO_BYTES = 40 * 2**20


@pytest.fixture(autouse=True, scope="module")
def _drop_memos():
    yield
    for fn in ALL_MEMOS:
        fn.cache_clear()


def _arrays(out):
    return out if isinstance(out, tuple) else (out,)


def _memo_arrays(name, size):
    for fn in MEMOS[name]:
        yield from _arrays(fn(*size.params.values()))


def _env_arrays(env):
    return {n: env[n] for n in env.names() if isinstance(env[n], np.ndarray)}


def _run(name, size):
    prog = get_benchmark(name).build(size, unroll=64, max_threads=64)
    return prog.run_sequential()


def _corrupt_one_output_element(name, env):
    if name == "trapez":
        env.set("integral", env.get("integral") + 1.0)
    elif name == "quad":
        env.set("total", env.get("total") + 1.0)
    elif name in ("qsort", "qsort_rec"):
        env.array("data")[0] = -1.0  # still sorted, no longer the input's values
    elif name == "susan":
        env.array("out")[-1, -1] ^= 1
    else:
        env.array({"mmult": "C", "fft": "X"}[name])[-1, -1] += 1.0


def test_every_app_is_listed():
    assert sorted(MEMOS) == sorted(BENCHMARKS)


@pytest.mark.parametrize("name,label", CASES)
def test_inputs_and_oracles_are_read_only(name, label):
    for array in _memo_arrays(name, problem_sizes(name)[label]):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize("name,label", CASES)
def test_consecutive_builds_share_no_array(name, label):
    """Scribbling over run 1's arrays leaves run 2 — built before the
    scribble, run after it — passing ``verify``."""
    bench, size = get_benchmark(name), problem_sizes(name)[label]
    first = _env_arrays(_run(name, size))
    second_prog = bench.build(size, unroll=64, max_threads=64)
    memo = list(_memo_arrays(name, size))
    for array_name, array in first.items():
        assert not np.shares_memory(array, second_prog.env[array_name])
        assert not any(np.shares_memory(array, kept) for kept in memo)
        array[...] = 0xFF if array.dtype == np.uint8 else np.nan
    bench.verify(second_prog.run_sequential(), size)


@pytest.mark.parametrize("name,label", CASES)
def test_warm_memo_still_catches_a_corrupt_output(name, label):
    bench, size = get_benchmark(name), problem_sizes(name)[label]
    env = _run(name, size)
    bench.verify(env, size)
    misses = [fn.cache_info().misses for fn in MEMOS[name]]
    _corrupt_one_output_element(name, env)
    with pytest.raises(AssertionError):
        bench.verify(env, size)
    # ... and that second verdict was reached against the memoised oracle.
    assert [fn.cache_info().misses for fn in MEMOS[name]] == misses


def test_memo_is_bounded_after_the_whole_large_grid():
    for fn in ALL_MEMOS:
        fn.cache_clear()
        assert fn.cache_info().maxsize == MEMO_SIZE
    cells = {
        (name, tuple(size.params.values())): size
        for name in sorted(BENCHMARKS)
        for size in (problem_sizes(name, target)["large"] for target in TARGETS)
    }
    for (name, _params), size in cells.items():
        get_benchmark(name).verify(_run(name, size), size)

    calls = {(fn, params) for name, params in cells for fn in MEMOS[name]}
    before = {fn: fn.cache_info() for fn in ALL_MEMOS}
    assert sum(info.currsize for info in before.values()) == len(calls)  # nothing else kept
    retained = sum(a.nbytes for fn, params in calls for a in _arrays(fn(*params)))
    # ... and those calls were all hits: what they returned is what is retained.
    assert all(fn.cache_info().misses == before[fn].misses for fn in ALL_MEMOS)
    assert 0 < retained <= LARGE_GRID_MEMO_BYTES, f"{retained / 2**20:.1f} MiB retained"


# -- verify's comparison: a fast pass, NumPy's verdict otherwise -----------------
def _verdict(check, actual, desired, **tol):
    try:
        check(actual, desired, **tol)
    except AssertionError as exc:
        return str(exc)
    return None


_TOL = {"rtol": 1e-9, "atol": 1e-9}
_BASE = np.linspace(1.0, 2.0, 12).reshape(3, 4)


def _with(index, value, base=_BASE):
    out = base.copy()
    out[index] = value
    return out


@pytest.mark.parametrize(
    "actual,desired,passes",
    [
        (_BASE.copy(), _BASE, True),
        (_with((1, 2), _BASE[1, 2] * (1 + 1e-9)), _BASE, True),  # just inside
        (_with((1, 2), _BASE[1, 2] * (1 + 1e-9) + 1e-9 * 1.01), _BASE, False),  # just outside
        (_with((0, 0), np.nan), _BASE, False),
        (_with((0, 0), np.nan), _with((0, 0), np.nan), True),  # NaN in both: NumPy passes it
        (_with((2, 3), np.inf), _with((2, 3), np.inf), True),
        (_with((2, 3), np.inf), _with((2, 3), -np.inf), False),
        (_BASE[:, :3].copy(), _BASE, False),  # shape mismatch
        (complex(1.0, 2.0), complex(1.0, 2.0 + 1e-6), False),  # a scalar out of tolerance
    ],
    ids=["equal", "inside", "outside", "nan", "nan-both", "inf", "inf-sign", "shape", "scalar"],
)
def test_verify_comparison_passes_and_fails_exactly_as_numpy(actual, desired, passes):
    """``common.assert_allclose`` accepts exactly what
    ``np.testing.assert_allclose`` accepts, and fails with its text."""
    from repro.apps.common import assert_allclose

    expected = _verdict(np.testing.assert_allclose, actual, desired, **_TOL)
    assert (expected is None) == passes
    assert _verdict(assert_allclose, actual, desired, **_TOL) == expected


@pytest.mark.parametrize(
    "actual,desired,closes",
    [
        (_BASE.copy(), _BASE, 0),
        (_with((2, 3), np.inf), _with((2, 3), np.inf), 0),
        (np.arange(6).reshape(2, 3), np.arange(6.0).reshape(2, 3), 0),
        (_with((1, 2), _BASE[1, 2] * (1 + 1e-9)), _BASE, 1),  # close, not equal
        (_with((0, 0), np.nan), _with((0, 0), np.nan), 1),  # NaN is never equal
        (_BASE[:, :3].copy(), _BASE, 0),  # shapes differ: straight to NumPy
    ],
    ids=["equal", "inf", "int-float", "close", "nan-both", "shape"],
)
def test_verify_comparison_settles_exact_equality_without_isclose(
    monkeypatch, actual, desired, closes
):
    """Most of ``verify``'s comparisons are bit-identical: those pass on
    ``np.array_equal`` and never reach ``np.isclose``; the rest compare
    as before (``np.testing`` calls its own ``isclose``, not this name)."""
    from repro.apps.common import assert_allclose

    calls = []
    real = np.isclose

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    expected = _verdict(np.testing.assert_allclose, actual, desired, **_TOL)
    monkeypatch.setattr(np, "isclose", spy)
    assert _verdict(assert_allclose, actual, desired, **_TOL) == expected
    assert len(calls) == closes
