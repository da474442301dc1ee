"""Front-end stage 2: tokenizer for the C-subset body language."""

from __future__ import annotations

from dataclasses import dataclass

from repro.preprocessor.errors import DDMSyntaxError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    {
        "int",
        "long",
        "float",
        "double",
        "char",
        "if",
        "else",
        "for",
        "while",
        "break",
        "continue",
        "return",
    }
)

# Longest-match-first operator table.
_OPERATORS = (
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?", ":",
    "(", ")", "[", "]", "{", "}", ";", ",", ".",
)


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "ident" | "kw" | "op" | "str" | "eof"
    value: str
    line: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, L{self.line})"


def tokenize(source: str, first_line: int = 1) -> list[Token]:
    """Token stream of a body slice (comments stripped, EOF appended)."""
    tokens: list[Token] = []
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
            tokens.append(Token("num", source[i:j], line))
            i = j
            continue
        # Identifiers / keywords.
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            tokens.append(Token("kw" if word in KEYWORDS else "ident", word, line))
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
            tokens.append(Token("str", source[i:j + 1], line))
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
            tokens.append(Token("num", str(ord(ch)), line))
            i = j + 1
            continue
        # Operators / punctuation.
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line))
                i += len(op)
                break
        else:
            raise DDMSyntaxError(f"unexpected character {c!r}", line)
    tokens.append(Token("eof", "", line))
    return tokens
