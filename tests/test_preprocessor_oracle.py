"""DDMCPP held to C: expressions printed, lexed and valued by C's rules.

The precedence table, printer and evaluator here are written from C11
(§6.4, §6.5) and share no code with ``repro.preprocessor``, reached only
through ``compile_to_program`` and, for the error properties,
``tokenize`` and ``Parser``.  Random trees over every operator the code
generator emits, printed with only the brackets C needs and joined by
blanks, newlines and comments (or glued where maximal munch allows),
must run to their C value; an ``@`` planted after a prefix is an error
at the prefix's line; and token soup raises ``DDMSyntaxError`` or parses
to a tree whose minimal-bracket print parses back to it.
"""

from __future__ import annotations

import contextlib
import operator

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.preprocessor import DDMSyntaxError, compile_to_program
from repro.preprocessor.lexer import tokenize
from repro.preprocessor.parser import Parser

# -- C's expression grammar ------------------------------------------------------

#: The binary operators, loosest first, each level left-associative
#: (§6.5.5–§6.5.14); ``?:`` binds looser, unary operators tighter.
BINARY = ("||", "&&", "|", "^", "&", "== !=", "< > <= >=", "<< >>", "+ -", "* / %")
LEVEL = {op: level for level, ops in enumerate(BINARY, 1) for op in ops.split()}
TERNARY, UNARY, POSTFIX = 0, len(BINARY) + 1, len(BINARY) + 2
UNARY_OPS = "-+!~"
#: the subset's punctuators of more than one character (§6.4.6)
LONG_PUNCTUATORS = "<<= >>= << >> <= >= == != && || ++ -- += -= *= /= %= &= ^= |=".split()
#: char literals and their codes (§6.4.4.4)
CHARS = {"'A'": 65, "'\\n'": 10, "'\\\\'": 92, "'\\''": 39}
INT_MIN, INT_MAX = -(2**31), 2**31 - 1
ARITHMETIC = dict(zip("* + - << >> < > <= >= == != & ^ |".split(), (
    getattr(operator, f) for f in "mul add sub lshift rshift lt gt le ge eq ne and_ xor or_".split()
)))

# A tree is ("leaf", spelling), ("unary", op, x), ("binary", op, l, r),
# ("?:", cond, then, other), ("index", base, indices) or ("call", name, args).


def c_tokens(node, need: int = TERNARY) -> list[str]:
    """*node*'s tokens, bracketed only if it binds looser than *need*."""
    kind, level = node[0], POSTFIX
    if kind == "leaf":
        return [node[1]]
    if kind == "unary":
        out, level = [node[1], *c_tokens(node[2], UNARY)], UNARY
    elif kind == "binary":
        level = LEVEL[node[1]]
        out = [*c_tokens(node[2], level), node[1], *c_tokens(node[3], level + 1)]
    elif kind == "?:":  # logical-OR-expression ? expression : conditional-expression
        level = TERNARY
        out = [*c_tokens(node[1], level + 1), "?", *c_tokens(node[2]), ":", *c_tokens(node[3])]
    elif kind == "index":
        out = c_tokens(node[1], POSTFIX) + sum((["[", *c_tokens(i), "]"] for i in node[2]), [])
    else:  # call: name ( arg , arg ... )
        out = [node[1], "(", *sum(([",", *c_tokens(arg)] for arg in node[2]), [])[1:], ")"]
    return ["(", *out, ")"] if level < need else out


def c_value(node) -> int:
    """The C value of *node* as ``int``, evaluating only what C does; an
    ``ArithmeticError`` where C leaves it undefined (§6.5 ¶5, §6.5.5, §6.5.7)."""
    kind = node[0]
    if kind == "leaf":  # a char, or an integer that is octal if it starts with 0
        return CHARS.get(node[1]) or int(node[1], 8 if node[1][0] == "0" else 10)
    if kind == "?:":
        return c_value(node[2] if c_value(node[1]) != 0 else node[3])
    if kind == "unary":
        x = c_value(node[2])
        value = {"-": -x, "+": x, "!": int(x == 0), "~": ~x}[node[1]]
    else:
        op, left = node[1], c_value(node[2])
        if op in ("&&", "||"):
            if (left != 0) == (op == "||"):
                return int(left != 0)
            return int(c_value(node[3]) != 0)
        right = c_value(node[3])
        if op in ("<<", ">>") and not (left >= 0 and 0 <= right < 31):
            raise ArithmeticError(op)
        if op in ("/", "%"):  # toward zero, exact for 32-bit ints; 0 raises
            quotient = int(left / right)
            value = quotient if op == "/" else left - quotient * right
            if not INT_MIN <= quotient <= INT_MAX:
                raise OverflowError(op)
        else:  # a comparison's bool is its 0 or 1
            value = int(ARITHMETIC[op](left, right))
    if not INT_MIN <= value <= INT_MAX:
        raise OverflowError(kind)
    return value


# -- lexing: separators and maximal munch ----------------------------------------


def may_follow(token: str, nxt: str) -> bool:
    """Whether maximal munch (§6.4 ¶4) reads *token* + *nxt* with *token*
    whole: no identifier or number runs on, no longer punctuator starts,
    and no ``/`` opens a comment.  A blank or comment ends where it ends,
    so only what follows a token is checked."""
    joined = token + nxt
    return not (
        all(c.isalnum() or c == "_" for c in joined[len(token) - 1:len(token) + 1])
        or joined[len(token) - 1:].startswith(("//", "/*"))
        or any(len(p) > len(token) and joined.startswith(p) for p in LONG_PUNCTUATORS)
    )


def layout(tokens: list[str], seps: list[str]) -> list[str]:
    """Tokens and separators alternating: the i-th junction takes
    ``seps[i]`` (none past the list), or a space where that would merge."""
    pieces = [tokens[0]]
    for i, nxt in enumerate(tokens[1:]):
        sep = seps[i] if i < len(seps) else ""
        pieces += [sep if may_follow(pieces[-1], sep or nxt) else " ", nxt]
    return pieces


_comment = st.text(alphabet="a*/ ", max_size=6)
separators = st.one_of(
    st.sampled_from(["", " ", "\t", "\r\n", "\n"]),
    _comment.filter(lambda t: "*/" not in t).map(lambda t: f"/*{t}*/"),
    _comment.filter(lambda t: "*/" not in t).map(lambda t: f"/* {t}\n{t} */"),
    _comment.map(lambda t: f"//{t}\n"),
)

leaves = (
    st.one_of(st.integers(0, 40), st.sampled_from(sorted(CHARS.values())))
    .flatmap(lambda v: st.sampled_from(
        [str(v), "0" + format(v, "o")] + [c for c, code in CHARS.items() if code == v]
    ))
    .map(lambda text: ("leaf", text))
)
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(st.just("unary"), st.sampled_from(UNARY_OPS), sub),
        st.tuples(st.just("binary"), st.sampled_from(sorted(LEVEL)), sub, sub),
        st.tuples(st.just("?:"), sub, sub, sub),
    ),
    max_leaves=10,
)
PROGRAM = (
    "#pragma ddm startprogram name(oracle)\n#pragma ddm var int r\n"
    "#pragma ddm thread 1\n{}\n#pragma ddm endthread\n#pragma ddm endprogram\n"
)


def _b(op, left, right):
    return ("binary", op, *(("leaf", x) if isinstance(x, str) else x for x in (left, right)))


@settings(max_examples=300, deadline=None)
@given(tree=trees, seps=st.lists(separators, max_size=30))
@example(tree=_b("+", _b("||", "2", "0"), _b("&&", "4", "9")), seps=[])
@example(tree=_b("+", _b("&&", "0", _b("/", "1", "0")), _b("||", "1", _b("%", "1", "0"))), seps=[])
@example(tree=_b("+", _b("/", _b("<", "3", "4"), "2"), _b("+", "010", "007")), seps=[])
def test_value_is_c_value(tree, seps):
    try:
        want = c_value(tree)
    except ArithmeticError:
        assume(False)
    text = "".join(layout(c_tokens(tree), seps))
    env = compile_to_program(PROGRAM.format(f"r = {text};")).run_sequential()
    assert env.get("r") == want, text


def test_operator_pairs_group_as_in_c():
    """Both groupings of every two binary operators, and of every unary
    with every binary one, in one program (a double keeps a stray 0.5)."""
    grid = []
    for x, y, z in ("010", "100", "632", "521"):
        for p in LEVEL:
            grid += [t for q in LEVEL for t in (_b(q, _b(p, x, y), z), _b(p, x, _b(q, y, z)))]
            for u in UNARY_OPS:
                grid += [("unary", u, _b(p, x, y)), _b(p, ("unary", u, ("leaf", x)), y)]
    want = {}
    for i, tree in enumerate(grid):
        with contextlib.suppress(ArithmeticError):
            want[i] = c_value(tree)
    body = "\n".join(f"r[{i}] = {' '.join(c_tokens(grid[i]))};" for i in want)
    program = PROGRAM.replace("int r", f"double r[{len(grid)}]").format(body)
    got = compile_to_program(program).run_sequential().array("r")
    assert {i: got[i] for i in want} == want


@settings(max_examples=150, deadline=None)
@given(trees, st.lists(separators, max_size=30), st.integers(0, 99), st.integers(1, 500))
@example(_b("+", "1", _b("-", "2", "3")), ["\r\n", "/* a\n*/", "//\n"], 7, 9)
def test_unexpected_character_is_at_its_line(tree, seps, cut, first_line):
    pieces = layout(c_tokens(tree), seps)
    prefix = "".join(pieces[: cut % (len(pieces) + 1)])
    text = prefix + "@" + "".join(pieces[cut % (len(pieces) + 1):])
    want = f"line {first_line + prefix.count(chr(10))}: unexpected character '@'"
    with pytest.raises(DDMSyntaxError) as info:
        tokenize(text, first_line)
    assert str(info.value) == want, repr(text)


#: the parser's node classes, by name, as this file's (kind, *fields)
NODES = {"Num": ("leaf", "literal"), "Name": ("leaf", "ident"), "Call": ("call", "func", "args"),
         "UnaryOp": ("unary", "op", "operand"), "BinOp": ("binary", "op", "left", "right"),
         "Ternary": ("?:", "cond", "then", "other"), "Index": ("index", "base", "indices")}


def from_parser(node):
    """The parser's tree in this file's form."""
    kind, *fields = NODES[type(node).__name__]
    return (kind, *(
        v if isinstance(v, str) else tuple(map(from_parser, v)) if isinstance(v, tuple)
        else from_parser(v) for v in (getattr(node, field) for field in fields)
    ))


def _parse(text: str):
    parser = Parser(tokenize(text))
    return from_parser(parser.expression()), parser.cur.kind


token_soup = st.lists(st.sampled_from(
    sorted(LEVEL) + list(UNARY_OPS) + "? : ( ) [ ] , a f 1 07 'A'".split()
), max_size=16).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(text=token_soup)
@example(text="f ( a , a [ 1 ] [ a ] ) * - ( a + 1 ) [ 07 ]")
def test_token_soup_raises_or_reprints(text):
    try:
        tree, _ = _parse(text)
    except DDMSyntaxError:
        return
    assert _parse(" ".join(c_tokens(tree))) == (tree, "eof")
