"""Front-end stage 3: recursive-descent parser for the C subset.

Supported constructs: local declarations (``int``/``long``/``float``/
``double``/``char``), assignments (plain and compound), ``++``/``--``
statements, ``if``/``else``, ``while``, C-style ``for``, ``break``/
``continue``/``return``, compound blocks, the usual expression operators
with C precedence (including the ternary), calls to whitelisted
intrinsics, and (multi-dimensional) array indexing.
"""

from __future__ import annotations

from typing import Optional

from repro.preprocessor import ast_nodes as A
from repro.preprocessor.errors import DDMSyntaxError
from repro.preprocessor.lexer import Token, tokenize

__all__ = ["Parser", "parse_block", "parse_expression"]

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

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


class Parser:
    """One-token-lookahead recursive descent over a token list."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ------------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self.cur
        if tok.kind == kind and (value is None or tok.value == value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.accept(kind, value)
        if tok is None:
            got = f"{self.cur.kind} {self.cur.value!r}"
            want = value if value is not None else kind
            raise DDMSyntaxError(f"expected {want!r}, got {got}", self.cur.line)
        return tok

    # -- statements -----------------------------------------------------------
    def parse_statements(self) -> list[A.Stmt]:
        out: list[A.Stmt] = []
        while self.cur.kind != "eof":
            out.append(self.statement())
        return out

    def statement(self) -> A.Stmt:
        tok = self.cur
        if tok.kind == "op" and tok.value == "{":
            return self.compound()
        if tok.kind == "op" and tok.value == ";":
            self.advance()
            return A.Compound(())
        if tok.kind == "kw":
            kw = tok.value
            if kw in ("int", "long", "float", "double", "char"):
                return self.declaration()
            if kw == "if":
                return self.if_statement()
            if kw == "while":
                return self.while_statement()
            if kw == "for":
                return self.for_statement()
            if kw == "break":
                self.advance()
                self.expect("op", ";")
                return A.Break()
            if kw == "continue":
                self.advance()
                self.expect("op", ";")
                return A.Continue()
            if kw == "return":
                self.advance()
                value = None
                if not (self.cur.kind == "op" and self.cur.value == ";"):
                    value = self.expression()
                self.expect("op", ";")
                return A.Return(value)
            raise DDMSyntaxError(f"unexpected keyword {kw!r}", tok.line)
        stmt = self.simple_statement()
        self.expect("op", ";")
        return stmt

    def compound(self) -> A.Compound:
        self.expect("op", "{")
        body: list[A.Stmt] = []
        while not (self.cur.kind == "op" and self.cur.value == "}"):
            if self.cur.kind == "eof":
                raise DDMSyntaxError("unterminated block", self.cur.line)
            body.append(self.statement())
        self.expect("op", "}")
        return A.Compound(tuple(body))

    def declaration(self) -> A.Decl:
        ctype = self.advance().value
        names: list[tuple[str, Optional[A.Expr]]] = []
        while True:
            name = self.expect("ident").value
            init: Optional[A.Expr] = None
            if self.accept("op", "="):
                init = self.expression()
            names.append((name, init))
            if not self.accept("op", ","):
                break
        self.expect("op", ";")
        return A.Decl(ctype, tuple(names))

    def simple_statement(self) -> A.Stmt:
        """Assignment, ++/--, or a bare expression (no trailing ';')."""
        start = self.pos
        expr = self.unary()
        tok = self.cur
        if tok.kind == "op" and tok.value in _ASSIGN_OPS:
            if not isinstance(expr, (A.Name, A.Index)):
                raise DDMSyntaxError("invalid assignment target", tok.line)
            op = self.advance().value
            value = self.expression()
            return A.Assign(expr, op, value)
        if tok.kind == "op" and tok.value in ("++", "--"):
            if not isinstance(expr, (A.Name, A.Index)):
                raise DDMSyntaxError("invalid ++/-- target", tok.line)
            self.advance()
            return A.IncDec(expr, tok.value)
        # Not an assignment: re-parse as a full expression statement.
        self.pos = start
        return A.ExprStmt(self.expression())

    def if_statement(self) -> A.If:
        self.expect("kw", "if")
        self.expect("op", "(")
        cond = self.expression()
        self.expect("op", ")")
        then = self.statement()
        other = None
        if self.accept("kw", "else"):
            other = self.statement()
        return A.If(cond, then, other)

    def while_statement(self) -> A.While:
        self.expect("kw", "while")
        self.expect("op", "(")
        cond = self.expression()
        self.expect("op", ")")
        return A.While(cond, self.statement())

    def for_statement(self) -> A.For:
        self.expect("kw", "for")
        self.expect("op", "(")
        init: Optional[A.Stmt] = None
        if not (self.cur.kind == "op" and self.cur.value == ";"):
            if self.cur.kind == "kw" and self.cur.value in (
                "int", "long", "float", "double", "char",
            ):
                init = self.declaration()
            else:
                init = self.simple_statement()
                self.expect("op", ";")
        else:
            self.expect("op", ";")
        cond: Optional[A.Expr] = None
        if not (self.cur.kind == "op" and self.cur.value == ";"):
            cond = self.expression()
        self.expect("op", ";")
        update: Optional[A.Stmt] = None
        if not (self.cur.kind == "op" and self.cur.value == ")"):
            update = self.simple_statement()
        self.expect("op", ")")
        return A.For(init, cond, update, self.statement())

    # -- expressions -----------------------------------------------------------
    def expression(self) -> A.Expr:
        return self.ternary()

    def ternary(self) -> A.Expr:
        cond = self.binary(0)
        if self.accept("op", "?"):
            then = self.expression()
            self.expect("op", ":")
            other = self.expression()
            return A.Ternary(cond, then, other)
        return cond

    def binary(self, level: int) -> A.Expr:
        if level >= len(_BINARY_LEVELS):
            return self.unary()
        ops = _BINARY_LEVELS[level]
        left = self.binary(level + 1)
        while self.cur.kind == "op" and self.cur.value in ops:
            op = self.advance().value
            right = self.binary(level + 1)
            left = A.BinOp(op, left, right)
        return left

    def unary(self) -> A.Expr:
        tok = self.cur
        if tok.kind == "op" and tok.value in ("-", "+", "!", "~"):
            self.advance()
            return A.UnaryOp(tok.value, self.unary())
        return self.postfix()

    def postfix(self) -> A.Expr:
        expr = self.primary()
        while True:
            if self.cur.kind == "op" and self.cur.value == "[":
                indices: list[A.Expr] = []
                while self.accept("op", "["):
                    indices.append(self.expression())
                    self.expect("op", "]")
                if isinstance(expr, A.Index):
                    expr = A.Index(expr.base, expr.indices + tuple(indices))
                else:
                    expr = A.Index(expr, tuple(indices))
            elif (
                self.cur.kind == "op"
                and self.cur.value == "("
                and isinstance(expr, A.Name)
            ):
                self.advance()
                args: list[A.Expr] = []
                if not (self.cur.kind == "op" and self.cur.value == ")"):
                    args.append(self.expression())
                    while self.accept("op", ","):
                        args.append(self.expression())
                self.expect("op", ")")
                expr = A.Call(expr.ident, tuple(args))
            else:
                return expr

    def primary(self) -> A.Expr:
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return A.Num(tok.value)
        if tok.kind == "str":
            self.advance()
            return A.Str(tok.value)
        if tok.kind == "ident":
            self.advance()
            return A.Name(tok.value)
        if tok.kind == "op" and tok.value == "(":
            self.advance()
            expr = self.expression()
            self.expect("op", ")")
            return expr
        raise DDMSyntaxError(
            f"unexpected token {tok.value!r} in expression", tok.line
        )


def parse_block(source: str, first_line: int = 1) -> list[A.Stmt]:
    """Parse a thread/section body into a statement list."""
    return Parser(tokenize(source, first_line)).parse_statements()


def parse_expression(source: str) -> A.Expr:
    """Parse a standalone expression (used for map(...) specs)."""
    parser = Parser(tokenize(source))
    expr = parser.expression()
    if parser.cur.kind != "eof":
        raise DDMSyntaxError(
            f"trailing tokens after expression: {parser.cur.value!r}",
            parser.cur.line,
        )
    return expr
