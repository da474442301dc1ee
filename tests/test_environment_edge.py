"""Edge-case tests for Environment and region bookkeeping."""

import numpy as np
import pytest

from repro.core import Environment


def test_get_with_default():
    env = Environment()
    assert env.get("missing") is None


def test_get_prefers_arrays():
    env = Environment()
    env.alloc("x", 3)
    assert env.get("x").shape == (3,)


def test_names_lists_both_kinds():
    env = Environment()
    env.alloc("a", 2)
    env.set("s", 1)
    assert set(env.names()) == {"a", "s"}


def test_setitem_scalar_then_array_name_guard():
    env = Environment()
    env.set("v", 3)
    # Assigning an ndarray to an existing scalar name stays a scalar slot.
    env["v"] = np.int64(5)
    assert env["v"] == 5


def test_region_lookup_for_scalar_goes_to_shared_region():
    env = Environment()
    env.set("alpha", 0.1)
    env.set("beta", 0.2)
    assert env.region("alpha").name == "__scalars__"
    assert env.region("alpha") is env.region("beta")


def test_region_unknown_name():
    env = Environment()
    with pytest.raises(KeyError):
        env.region("ghost")


def test_alloc_zero_dim_array_has_min_region():
    env = Environment()
    arr = env.alloc("empty", 0)
    assert arr.size == 0
    assert env.region("empty").size >= 1  # regions must be non-empty


def test_adopt_non_contiguous_view():
    env = Environment()
    base = np.arange(100).reshape(10, 10)
    view = base[::2, ::2]
    adopted = env.adopt("v", view)
    assert adopted.shape == (5, 5)
    assert env.region("v").size == adopted.nbytes


def test_dtype_variety():
    env = Environment()
    env.alloc("u8", 16, dtype=np.uint8)
    env.alloc("c", (4, 4), dtype=np.complex128)
    assert env.region("u8").size == 16
    assert env.region("c").size == 256
