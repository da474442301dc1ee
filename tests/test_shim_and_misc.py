"""Tests for the preprocessor runtime shim and small utility surfaces."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import Environment
from repro.preprocessor.shim import SharedProxy, c_printf, cdiv, cmod


# -- C arithmetic helpers ---------------------------------------------------
@pytest.mark.parametrize(
    "a, b, q, r",
    [
        (7, 2, 3, 1),
        (-7, 2, -3, -1),
        (7, -2, -3, 1),
        (-7, -2, 3, -1),
        (6, 3, 2, 0),
        (0, 5, 0, 0),
    ],
)
def test_c_division_table(a, b, q, r):
    assert cdiv(a, b) == q
    assert cmod(a, b) == r


def test_cdiv_floats_true_division():
    assert cdiv(7.0, 2) == 3.5
    assert cdiv(7, 2.0) == 3.5


@given(
    a=st.integers(min_value=-10_000, max_value=10_000),
    b=st.integers(min_value=-100, max_value=100).filter(lambda x: x != 0),
)
def test_c_division_identity(a, b):
    """C guarantees (a/b)*b + a%b == a."""
    assert cdiv(a, b) * b + cmod(a, b) == a
    # Truncation toward zero.
    assert abs(cdiv(a, b)) == abs(a) // abs(b)


def test_cmod_floats_fmod():
    assert cmod(7.5, 2.0) == pytest.approx(1.5)


def test_numpy_integers_treated_as_ints():
    assert cdiv(np.int64(-7), np.int64(2)) == -3


def test_bools_divide_as_c_ints():
    # Generated code gets a bool only from a comparison or `!`, whose C
    # value is the int 0 or 1, so (a < b) / 2 truncates as C does.
    assert cdiv(True, 2) == 0 and cmod(True, 2) == 1


def test_printf_formats(capsys):
    c_printf("x=%d y=%.1f %s\n", 3, 2.5, "ok")
    c_printf("plain")
    out = capsys.readouterr().out
    assert out == "x=3 y=2.5 ok\nplain"


# -- SharedProxy ----------------------------------------------------------------
def test_shared_proxy_scalar_roundtrip():
    env = Environment()
    env.set("x", 1)
    proxy = SharedProxy(env)
    assert proxy.x == 1
    proxy.x = 5
    assert env.get("x") == 5


def test_shared_proxy_array_access():
    env = Environment()
    env.alloc("a", 4)
    proxy = SharedProxy(env)
    proxy.a[2] = 7.0
    assert env.array("a")[2] == 7.0


def test_shared_proxy_unknown_name():
    proxy = SharedProxy(Environment())
    with pytest.raises(AttributeError, match="no shared variable"):
        _ = proxy.nope


# -- misc utility surfaces ----------------------------------------------------------
def test_package_version_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_top_level_exports_resolve():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_cli_sweep_mode(capsys):
    from repro.cli import main

    rc = main(["trapez", "--platform", "soft", "--sweep", "--size", "small",
               "--unroll", "32"])
    assert rc == 0
    out = capsys.readouterr().out
    # 2, 4, 6 kernels on tfluxsoft.
    assert out.count("kernels=") >= 3


def test_cli_ladder_dedupes_and_caps():
    from repro.cli import _ladder

    assert _ladder(27) == [2, 4, 8, 16, 27]
    assert _ladder(16) == [2, 4, 8, 16]  # max coincides with a rung: once
    assert _ladder(6) == [2, 4, 6]
    assert _ladder(1) == [1]
    assert _ladder(7, rungs=(1, 2, 4)) == [1, 2, 4, 7]


def test_cli_dist_platform(capsys):
    from repro.cli import main

    rc = main(["trapez", "--platform", "dist", "--nodes", "2",
               "--size", "small", "--unroll", "32", "--kernels", "4"])
    assert rc == 0
    assert "tfluxdist" in capsys.readouterr().out


def test_cli_nodes_requires_dist(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["trapez", "--platform", "soft", "--nodes", "2"])


def test_experiments_cmp_rows():
    from repro.analysis.experiments import _cmp_rows

    rows = _cmp_rows({"trapez": 25.0}, {"trapez": 25.6, "fft": 18.8})
    assert any("TRAPEZ" in r for r in rows)
    assert not any("FFT" in r for r in rows)  # unmeasured rows skipped
