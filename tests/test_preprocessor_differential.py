"""The front end against the reference it replaced.

``reference_tokens`` is the character-by-character tokenizer as it stood
before the master pattern: verbatim, except that it yields its tokens,
so a run that fails still shows what came before.
``ReferenceParser.binary`` is the parser's recursion once per precedence
level.  Both live here only, as oracles.

Over arbitrary text -- comments, strings, char literals, escapes,
``\\r`` -- ``tokenize`` gives the reference's ``(kind, value, line)`` per
token, or its error message and line.  The exceptions are the literals
the reference let through to Python's ``compile`` (or its codecs), and
each is asserted.  Where the reference yields

* a number or name holding a non-ASCII digit or letter (it tested
  ``str.isdigit``/``isalpha``), ``tokenize`` raises "unexpected
  character" at the first such character;
* a number whose exponent sign has no digit after it (``1e+``), it
  raises "exponent without digits";
* a number ending the text in a bare ``e`` (``1e``), it gives the
  number and the name ``e``, as it does anywhere else in the text;
* a string literal Python cannot read (a raw newline, ``\\x4``), it
  raises "bad string literal";

and where the reference raises a raw ``UnicodeError`` on a char
literal's escape, it raises "bad char literal".
"""

import ast
import re
import warnings

from hypothesis import example, given, settings, strategies as st

from repro.preprocessor import ast_nodes as A
from repro.preprocessor.errors import DDMSyntaxError
from repro.preprocessor.lexer import KEYWORDS, Token, tokenize
from repro.preprocessor.parser import Parser

# -- the reference tokenizer ----------------------------------------------------

# Longest-match-first operator table.
_OPERATORS = (
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?", ":",
    "(", ")", "[", "]", "{", "}", ";", ",", ".",
)


def reference_tokens(source: str, first_line: int = 1):
    """Token stream of a body slice (comments stripped, EOF appended)."""
    i = 0
    line = first_line
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            continue
        # Comments.
        if source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                raise DDMSyntaxError("unterminated /* comment", line)
            line += source.count("\n", i, j)
            i = j + 2
            continue
        # Numbers (ints, floats, exponents).
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < n:
                ch = source[j]
                if ch.isdigit():
                    j += 1
                elif ch == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif ch in "eE" and not seen_exp and j > i:
                    nxt = source[j + 1] if j + 1 < n else ""
                    if nxt.isdigit() or nxt in "+-":
                        seen_exp = True
                        j += 2 if nxt in "+-" else 1
                    else:
                        break
                else:
                    break
            yield Token("num", source[i:j], line)
            i = j
            continue
        # Identifiers / keywords.
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            yield Token("kw" if word in KEYWORDS else "ident", word, line)
            i = j
            continue
        # String literals.
        if c == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise DDMSyntaxError("unterminated string literal", line)
            yield Token("str", source[i:j + 1], line)
            i = j + 1
            continue
        # Character literals become their integer code.
        if c == "'":
            j = i + 1
            while j < n and source[j] != "'":
                if source[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise DDMSyntaxError("unterminated char literal", line)
            body = source[i + 1:j]
            ch = bytes(body, "utf-8").decode("unicode_escape")
            if len(ch) != 1:
                raise DDMSyntaxError(f"bad char literal {body!r}", line)
            yield Token("num", str(ord(ch)), line)
            i = j + 1
            continue
        # Operators / punctuation.
        for op in _OPERATORS:
            if source.startswith(op, i):
                yield Token("op", op, line)
                i += len(op)
                break
        else:
            raise DDMSyntaxError(f"unexpected character {c!r}", line)
    yield Token("eof", "", line)


# -- the reference parser --------------------------------------------------------

# Binary precedence, low to high (C-like; bitwise folded near comparisons).
_BINARY_LEVELS = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]


class ReferenceParser(Parser):
    """The parser with its binary operators parsed one level per call."""

    def binary(self, level: int) -> A.Expr:
        if level >= len(_BINARY_LEVELS):
            return self.unary()
        ops = _BINARY_LEVELS[level]
        left = self.binary(level + 1)
        while self.cur.kind == "op" and self.cur.value in ops:
            op = self.cur.value
            self.pos += 1
            right = self.binary(level + 1)
            left = A.BinOp(op, left, right)
        return left


# -- the differential -------------------------------------------------------------

_BAD_EXPONENT = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][+-](?![0-9])")

#: the reference raised a raw UnicodeError on a char literal's escape
_CHAR_ESCAPE = object()


def _expected(tok: Token):
    """What ``tokenize`` gives where the reference yielded *tok*: a list
    of (kind, value, line), or the error message it raises instead."""
    kind, value, line = tok
    if kind == "str":
        try:
            ast.literal_eval(value)
        except (SyntaxError, ValueError):
            return f"line {line}: bad string literal {value!r}"
    elif kind == "num" and (bad := _BAD_EXPONENT.match(value)):
        return f"line {line}: exponent without digits in {bad[0]!r}"
    elif not value.isascii():
        first = next(c for c in value if not c.isascii())
        return f"line {line}: unexpected character {first!r}"
    elif kind == "num" and value[-1] in "eE":
        return [("num", value[:-1], line), ("ident", value[-1], line)]
    return [tuple(tok)]


def reference_outcome(source: str, first_line: int):
    """The reference's tokens as (kind, value, line), or its error
    message, with each documented divergence applied."""
    out = []
    try:
        for tok in reference_tokens(source, first_line):
            expected = _expected(tok)
            if isinstance(expected, str):
                return expected
            out += expected
    except DDMSyntaxError as exc:
        return str(exc)
    except UnicodeError:
        return _CHAR_ESCAPE
    return out


def outcome(source: str, first_line: int):
    try:
        return [tuple(tok) for tok in tokenize(source, first_line)]
    except DDMSyntaxError as exc:
        return str(exc)


#: fragments that make the lexer's corner cases likely
_PIECES = [
    "a", "x_1", "int", "for", "else", "0", "7", "42", "1.5", ".", "e", "E",
    *_OPERATORS, "//", "/*", "*/", '"', "'", "\\", "\\n", "\\x", "\\u00e9",
    "\\0", "n", "\n", "\r", "\t", " ", "@", "$", "#", "\x0c", "\x00",
    "\u00b2", "\u0661", "\u00e9", "\ud800",
]

sources = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
)


@settings(max_examples=400, deadline=None)
@given(source=sources, first_line=st.integers(1, 500))
@example(source="a[0] = 2 * 1e+;", first_line=17)
@example(source=".5e-", first_line=1)
@example(source="x = 1e", first_line=1)
@example(source="r = 2\u00b2 + \u0661;", first_line=3)
@example(source="c = '\\x';", first_line=1)
@example(source='printf("a\nb");', first_line=1)
@example(source="/* \n */ b\r\n // c\n 'A' \"\\\"\"", first_line=9)
def test_tokenize_matches_reference(source, first_line):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the codecs' invalid-escape notes
        want = reference_outcome(source, first_line)
        got = outcome(source, first_line)
    if want is _CHAR_ESCAPE:
        assert re.fullmatch(r"line \d+: bad char literal .*", got, re.DOTALL), got
    else:
        assert got == want


def test_each_divergence_is_reached():
    """The examples above take every documented divergence."""
    assert reference_outcome("a[0] = 2 * 1e+;", 17) == (
        "line 17: exponent without digits in '1e+'"
    )
    assert reference_outcome("r = 2\u00b2;", 3) == "line 3: unexpected character '\u00b2'"
    assert reference_outcome("x = 1e", 1)[-3:] == [
        ("num", "1", 1), ("ident", "e", 1), ("eof", "", 1),
    ]
    assert reference_outcome('printf("a\nb");', 1).startswith(
        "line 1: bad string literal"
    )
    assert reference_outcome("c = '\\x';", 1) is _CHAR_ESCAPE
    assert [t.value for t in reference_tokens("x = 1e")][-2] == "1e"
