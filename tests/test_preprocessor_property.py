"""Property-based tests: random C programs through the preprocessor.

Random arithmetic expression trees are rendered both as DDM C source
(fed through the full lexer → parser → codegen → exec pipeline) and
evaluated directly with C semantics in Python.  The two must agree —
a strong end-to-end check on the whole tool-chain.  Random expressions
that mix every binary operator also parse to the same tree as the
reference parser's, which recurses once per precedence level.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.preprocessor import DDMSyntaxError, compile_to_program
from repro.preprocessor.lexer import tokenize
from repro.preprocessor.parser import Parser
from repro.preprocessor.shim import cdiv, cmod
from tests.test_preprocessor_differential import ReferenceParser


# -- random C expression trees over one variable -----------------------------
class Node:
    """(text, value) pairs built bottom-up with C semantics."""

    def __init__(self, text: str, value: int) -> None:
        self.text = text
        self.value = value


def leaves(rng) -> Node:
    v = int(rng.integers(-20, 21))
    if v < 0:
        return Node(f"(0 - {-v})", v)
    return Node(str(v), v)


_BIN_OPS = ["+", "-", "*", "/", "%"]


def combine(rng, a: Node, b: Node) -> Node:
    op = _BIN_OPS[int(rng.integers(0, len(_BIN_OPS)))]
    if op in ("/", "%") and b.value == 0:
        op = "+"
    if op == "+":
        return Node(f"({a.text} + {b.text})", a.value + b.value)
    if op == "-":
        return Node(f"({a.text} - {b.text})", a.value - b.value)
    if op == "*":
        return Node(f"({a.text} * {b.text})", a.value * b.value)
    if op == "/":
        return Node(f"({a.text} / {b.text})", cdiv(a.value, b.value))
    return Node(f"({a.text} % {b.text})", cmod(a.value, b.value))


def random_expr(rng, depth: int) -> Node:
    if depth <= 0:
        return leaves(rng)
    a = random_expr(rng, depth - 1)
    b = random_expr(rng, depth - 1)
    return combine(rng, a, b)


def randexpr_program(seed: int, depth: int) -> tuple[str, list[Node]]:
    """Three random expressions of *depth* assigned to ``r0..r2``: the
    DDM source and each expression's C value."""
    rng = np.random.default_rng(seed)
    exprs = [random_expr(rng, depth) for _ in range(3)]
    body = "\n".join(f"  r{i} = {e.text};" for i, e in enumerate(exprs))
    vars_ = "\n".join(f"#pragma ddm var int r{i}" for i in range(3))
    src = f"""
#pragma ddm startprogram name(randexpr)
{vars_}
#pragma ddm thread 1
{body}
#pragma ddm endthread
#pragma ddm endprogram
"""
    return src, exprs


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), depth=st.integers(1, 4))
def test_random_expressions_roundtrip(seed, depth):
    src, exprs = randexpr_program(seed, depth)
    env = compile_to_program(src).run_sequential()
    for i, e in enumerate(exprs):
        assert env.get(f"r{i}") == e.value, (
            f"expr {e.text} -> {env.get(f'r{i}')} != {e.value}"
        )


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


# -- the parser against the reference parser ------------------------------------
_BINARY = [
    "||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=",
    "<<", ">>", "+", "-", "*", "/", "%",
]


def _sequence(operand):
    """``x op y op z ...`` over every binary operator, unparenthesised,
    so the tree's shape is the parser's choice."""
    return st.tuples(
        operand, st.lists(st.tuples(st.sampled_from(_BINARY), operand), max_size=6)
    ).map(lambda t: " ".join([t[0], *(f"{op} {x}" for op, x in t[1])]))


def _compound(operand):
    seq = _sequence(operand)
    return st.one_of(
        seq.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from("-+!~"), operand).map("".join),
        st.tuples(seq, seq).map(lambda t: f"a[{t[0]}][{t[1]}]"),
        st.tuples(seq, seq).map(lambda t: f"fmax({t[0]}, {t[1]})"),
        st.tuples(seq, seq, seq).map(lambda t: f"({t[0]} ? {t[1]} : {t[2]})"),
    )


c_expressions = _sequence(
    st.recursive(
        st.sampled_from(["a", "b", "CTX", "0", "7", "2.5"]), _compound, max_leaves=12
    )
)

#: tokens in any order: parse errors must match too
token_soup = st.lists(
    st.sampled_from(_BINARY + ["a", "1", "(", ")", "[", "]", "?", ":", ",", "-", "!"]),
    max_size=16,
).map(" ".join)


def _parsed(parser_class, text):
    """The tree of *text* as one expression, or the error it raises."""
    parser = parser_class(tokenize(text))
    try:
        expr = parser.expression()
    except DDMSyntaxError as exc:
        return str(exc)
    return expr, parser.pos


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(c_expressions, token_soup))
def test_parser_matches_reference_parser(text):
    assert _parsed(Parser, text) == _parsed(ReferenceParser, text)
