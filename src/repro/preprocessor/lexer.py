"""Front-end stage 2: tokenizer for the C-subset body language.

One compiled master pattern, scanned by ``re.finditer``, matches each
token with the blanks before it; the alternative that matched names its
kind.  The lexical grammar (D is ``[0-9]``, blanks are `` \\t\\r``, and
``\\n`` counts a line)::

    comment  // to end of line  |  /* ... */
    kw       a KEYWORDS member not followed by [A-Za-z0-9_]
    ident    [A-Za-z_][A-Za-z0-9_]*
    num      (D+ .? D* | . D+) ([eE] [+-]? D+)?
    str      " ([^"\\] | \\ any)* "           must read as a Python string
    char     ' ([^'\\] | \\ any)* '           one character: the "num" of its code
    op       the longest match of _OPERATOR

Digits, identifier characters and blanks are ASCII.  Anything else
outside a literal is "unexpected character"; it, an exponent without
digits (``1e+``), an unterminated comment or literal, and a literal
Python cannot read are each a :class:`DDMSyntaxError` at its line.
"""

from __future__ import annotations

import ast
import re
from typing import NamedTuple

from repro.preprocessor.errors import DDMSyntaxError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    "int long float double char if else for while break continue return".split()
)

#: Longest first: shift-assignments, the other ``X=`` operators, the
#: doubled ones, then every single-character operator and bracket.
_OPERATOR = r"<<=|>>=|[-+*/%=<>!&|^]=|&&|\|\||\+\+|--|<<|>>|[-+*/%=<>!&|^~?:()\[\]{};,.]"
_MANTISSA = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)"

# Leading blanks, then exactly one alternative; ``bad`` takes any
# character nothing else does, so the matches tile the whole source.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<skip>\n|//[^\n]*|/\*.*?\*/)"
    rf"|(?P<kw>(?:{'|'.join(sorted(KEYWORDS))})(?![A-Za-z0-9_]))"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    rf"|(?P<badnum>{_MANTISSA}[eE][+-](?![0-9]))"
    rf"|(?P<num>{_MANTISSA}(?:[eE][+-]?[0-9]+)?)"
    r'|(?P<str>"(?:[^"\\]|\\.)*")'
    r"|(?P<char>'(?:[^'\\]|\\.)*')"
    r"|(?P<open>/\*|\"|')"
    rf"|(?P<op>{_OPERATOR})"
    r"|(?P<end>\Z)"
    r"|(?P<bad>.))",
    re.DOTALL,
)

_AS_MATCHED = frozenset({"op", "ident", "num", "kw"})
_UNTERMINATED = {"/*": "/* comment", '"': "string literal", "'": "char literal"}


class Token(NamedTuple):
    kind: str  # "num" | "ident" | "kw" | "op" | "str" | "eof"
    value: str
    line: int


def tokenize(source: str, first_line: int = 1) -> list[Token]:
    """Token stream of a body slice (comments stripped, EOF appended)."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # skips NamedTuple's Python-level __new__
    line = first_line
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        value = m[kind]
        if kind in _AS_MATCHED:
            append(new(Token, (kind, value, line)))
        elif kind == "skip":  # a newline or a comment
            line += value.count("\n")
        elif kind == "str":
            append(new(Token, ("str", _string(value, line), line)))
        elif kind == "char":
            append(new(Token, ("num", str(_char_code(value[1:-1], line)), line)))
        elif kind == "end":
            break
        elif kind == "open":
            raise DDMSyntaxError(f"unterminated {_UNTERMINATED[value]}", line)
        elif kind == "badnum":
            raise DDMSyntaxError(f"exponent without digits in {value!r}", line)
        else:
            raise DDMSyntaxError(f"unexpected character {value!r}", line)
    append(new(Token, ("eof", "", line)))
    return tokens


def _string(literal: str, line: int) -> str:
    """*literal*, if Python reads it as one string (it is emitted verbatim)."""
    try:
        ast.literal_eval(literal)
    except (SyntaxError, ValueError):
        raise DDMSyntaxError(f"bad string literal {literal!r}", line) from None
    return literal


def _char_code(body: str, line: int) -> int:
    """The code of a char literal's one (possibly escaped) character."""
    try:
        ch = body.encode("utf-8").decode("unicode_escape")
    except UnicodeError:
        ch = ""
    if len(ch) != 1:
        raise DDMSyntaxError(f"bad char literal {body!r}", line)
    return ord(ch)
