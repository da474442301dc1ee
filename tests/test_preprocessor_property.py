"""Random loop-threads and ``map(...)`` fan-outs through the
preprocessor, run and checked against the C loops they came from."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.preprocessor import compile_to_program


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    unroll=st.integers(min_value=1, max_value=16),
    step=st.integers(min_value=1, max_value=5),
    scale=st.integers(min_value=-3, max_value=3),
)
def test_random_loop_threads_cover_iteration_space(n, unroll, step, scale):
    """Loop-threads must touch exactly the C loop's iteration set."""
    env = compile_to_program(loop_program(n, unroll, step, scale)).run_sequential()
    expected = np.zeros(n, dtype=np.int64)
    for i in range(0, n, step):
        expected[i] = i * scale + 1
    np.testing.assert_array_equal(env.array("a"), expected)


def loop_program(n: int, unroll: int, step: int, scale: int) -> str:
    """A loop-thread writing ``a[i] = i * scale + 1`` over ``[0, n)``."""
    return f"""
#pragma ddm startprogram name(randloop)
#pragma ddm var int a[{n}]
#pragma ddm for thread 1 unroll({unroll})
  int i;
  for (i = 0; i < {n}; i += {step}) {{
    a[i] = i * {scale} + 1;
  }}
#pragma ddm endfor
#pragma ddm endprogram
"""


@settings(max_examples=15, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=10),
    fan=st.integers(min_value=1, max_value=4),
)
def test_random_fanout_dependences(width, fan):
    """Producer with `width` contexts feeding a consumer through map()."""
    consumers = max(1, width // fan)
    env = compile_to_program(fanout_program(width, fan)).run_sequential()
    total = sum(range(1, width + 1))
    np.testing.assert_array_equal(env.array("dst"), [total] * consumers)


def fanout_program(width: int, fan: int) -> str:
    """``width`` producer contexts summed by ``width // fan`` consumers,
    each reached through a ``map(...)`` arc."""
    consumers = max(1, width // fan)
    return f"""
#pragma ddm startprogram name(randdag)
#pragma ddm var double src[{width}]
#pragma ddm var double dst[{consumers}]
#pragma ddm thread 1 context({width})
  src[CTX] = CTX + 1;
#pragma ddm endthread
#pragma ddm thread 2 context({consumers}) depends(1 map(min(CTX / {fan}, {consumers - 1})))
  int i;
  double acc = 0;
  for (i = 0; i < {width}; i++) acc = acc + src[i];
  dst[CTX] = acc;
#pragma ddm endthread
#pragma ddm endprogram
"""
