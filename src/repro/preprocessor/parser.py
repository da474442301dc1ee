"""Front-end stage 3: parser for the C subset.

Statements and unary/postfix expressions are recursive descent with one
token of lookahead.  Binary operators are precedence climbing over one
``{operator: level}`` table: an operand costs one step of one loop, and
the parser recurses only where a tighter-binding operator follows.

Supported constructs: local declarations (``int``/``long``/``float``/
``double``/``char``), assignments (plain and compound), ``++``/``--``
statements, ``if``/``else``, ``while``, C-style ``for``, ``break``/
``continue``/``return``, compound blocks, the usual expression operators
with C precedence (including the ternary), calls to whitelisted
intrinsics, and (multi-dimensional) array indexing.

Nesting: parentheses, blocks and unary operators nest at least C99's
63 levels (§5.2.4.1).  Deeper is a :class:`DDMSyntaxError` at its line,
never a ``RecursionError`` or a ``SyntaxError`` from Python's compile:
past the recursion limit, or past what the generated Python holds (200
brackets, 100 indents, 20 loops) less what the back-end adds.
"""

from __future__ import annotations

from typing import Optional

from repro.preprocessor import ast_nodes as A
from repro.preprocessor.errors import DDMSyntaxError
from repro.preprocessor.lexer import Token, tokenize

__all__ = ["Parser", "parse_block", "parse_expression"]

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: Binary operator -> precedence level, loosest first (C's order).  No
#: token but an ``op`` is spelled like an operator or bracket, so the
#: hot paths below test a token's value alone.
_BINARY_LEVEL = {
    op: level
    for level, ops in enumerate(
        ("||", "&&", "|", "^", "&", "== !=", "< > <= >=", "<< >>", "+ -", "* / %")
    )
    for op in ops.split()
}

#: Deepest expression tree, if/else/while/for body and loop the
#: generated Python holds, with room for what the back-end wraps them in.
MAX_EXPR_DEPTH, MAX_BODY_DEPTH, MAX_LOOP_DEPTH = 192, 96, 20

_TYPES = ("int", "long", "float", "double", "char")
_LEAVES = {"ident": A.Name, "num": A.Num, "str": A.Str}


class Parser:
    """One-token-lookahead recursive descent over a token list."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = self.loops = 0  # bodies and loops open around pos

    # -- token helpers ------------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self.tokens[self.pos]
        if tok.kind == kind and (value is None or tok.value == value):
            self.pos += 1
            return tok
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
        while self.tokens[self.pos].kind != "eof":
            out.append(self.statement())
        return out

    def statement(self) -> A.Stmt:
        tok = self.tokens[self.pos]
        if tok.value == "{":
            return self.compound()
        if tok.value == ";":
            self.pos += 1
            return A.Compound(())
        if tok.kind == "kw":
            kw = tok.value
            if kw in _TYPES:
                return self.declaration()
            if kw == "if":
                return self.if_statement()
            if kw == "while":
                return self.while_statement()
            if kw == "for":
                return self.for_statement()
            if kw in ("break", "continue"):
                self.pos += 1
                self.expect("op", ";")
                return A.Break() if kw == "break" else A.Continue()
            if kw == "return":
                self.pos += 1
                value = None if self.cur.value == ";" else self.expression()
                self.expect("op", ";")
                return A.Return(value)
            raise DDMSyntaxError(f"unexpected keyword {kw!r}", tok.line)
        stmt = self.simple_statement()
        self.expect("op", ";")
        return stmt

    def body(self, loop: bool) -> A.Stmt:
        """The body of an if/else or (*loop*) a while/for, one level in."""
        self.depth += 1
        self.loops += loop
        if self.depth > MAX_BODY_DEPTH or self.loops > MAX_LOOP_DEPTH:
            raise DDMSyntaxError(
                f"statements nested deeper than {MAX_BODY_DEPTH} bodies"
                f" or {MAX_LOOP_DEPTH} loops", self.cur.line,
            )
        stmt = self.statement()
        self.depth -= 1
        self.loops -= loop
        return stmt

    def compound(self) -> A.Compound:
        self.expect("op", "{")
        body: list[A.Stmt] = []
        while self.tokens[self.pos].value != "}":
            if self.tokens[self.pos].kind == "eof":
                raise DDMSyntaxError("unterminated block", self.cur.line)
            body.append(self.statement())
        self.pos += 1
        return A.Compound(tuple(body))

    def declaration(self) -> A.Decl:
        ctype = self.tokens[self.pos].value
        self.pos += 1
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
        tok = self.tokens[self.pos]
        if tok.value in _ASSIGN_OPS:
            if not isinstance(expr, (A.Name, A.Index)):
                raise DDMSyntaxError("invalid assignment target", tok.line)
            self.pos += 1
            return A.Assign(expr, tok.value, self.expression())
        if tok.value in ("++", "--"):
            if not isinstance(expr, (A.Name, A.Index)):
                raise DDMSyntaxError("invalid ++/-- target", tok.line)
            self.pos += 1
            return A.IncDec(expr, tok.value)
        # Not an assignment: re-parse as a full expression statement.
        self.pos = start
        return A.ExprStmt(self.expression())

    def if_statement(self) -> A.If:
        self.expect("kw", "if")
        self.expect("op", "(")
        cond = self.expression()
        self.expect("op", ")")
        then = self.body(False)
        other = None
        if self.accept("kw", "else"):
            other = self.body(False)
        return A.If(cond, then, other)

    def while_statement(self) -> A.While:
        self.expect("kw", "while")
        self.expect("op", "(")
        cond = self.expression()
        self.expect("op", ")")
        return A.While(cond, self.body(True))

    def for_statement(self) -> A.For:
        self.expect("kw", "for")
        self.expect("op", "(")
        init: Optional[A.Stmt] = None
        if self.cur.value in _TYPES:
            init = self.declaration()
        else:
            if self.cur.value != ";":
                init = self.simple_statement()
            self.expect("op", ";")
        cond = None if self.cur.value == ";" else self.expression()
        self.expect("op", ";")
        update = None if self.cur.value == ")" else self.simple_statement()
        self.expect("op", ")")
        return A.For(init, cond, update, self.body(True))

    # -- expressions -----------------------------------------------------------
    def expression(self) -> A.Expr:
        """An expression no deeper than ``MAX_EXPR_DEPTH``: a tree has at
        least as many tokens as levels, so only a long one is measured."""
        start = self.pos
        expr = self.ternary()
        if self.pos - start > MAX_EXPR_DEPTH and _height(expr) > MAX_EXPR_DEPTH:
            raise DDMSyntaxError(
                f"expression nested deeper than {MAX_EXPR_DEPTH} levels",
                self.tokens[start].line,
            )
        return expr

    def ternary(self) -> A.Expr:
        cond = self.binary(0)
        if self.tokens[self.pos].value == "?":
            self.pos += 1
            then = self.expression()
            self.expect("op", ":")
            return A.Ternary(cond, then, self.expression())
        return cond

    def binary(self, min_level: int) -> A.Expr:
        """Operators binding at *min_level* or tighter, left-associative."""
        left = self.unary()
        tokens = self.tokens
        while True:
            op = tokens[self.pos].value
            level = _BINARY_LEVEL.get(op, -1)
            if level < min_level:
                return left
            self.pos += 1
            left = A.BinOp(op, left, self.binary(level + 1))

    def unary(self) -> A.Expr:
        tok = self.tokens[self.pos]
        if tok.value in ("-", "+", "!", "~"):
            self.pos += 1
            return A.UnaryOp(tok.value, self.unary())
        return self.postfix()

    def postfix(self) -> A.Expr:
        expr = self.primary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.value == "[":
                indices: list[A.Expr] = []
                while self.accept("op", "["):
                    indices.append(self.expression())
                    self.expect("op", "]")
                if isinstance(expr, A.Index):
                    expr = A.Index(expr.base, expr.indices + tuple(indices))
                else:
                    expr = A.Index(expr, tuple(indices))
            elif tok.value == "(" and isinstance(expr, A.Name):
                self.pos += 1
                args: list[A.Expr] = []
                if self.cur.value != ")":
                    args.append(self.expression())
                    while self.accept("op", ","):
                        args.append(self.expression())
                self.expect("op", ")")
                expr = A.Call(expr.ident, tuple(args))
            else:
                return expr

    def primary(self) -> A.Expr:
        tok = self.tokens[self.pos]
        leaf = _LEAVES.get(tok.kind)
        if leaf is not None:
            self.pos += 1
            return leaf(tok.value)
        if tok.value == "(":
            self.pos += 1
            expr = self.expression()
            self.expect("op", ")")
            return expr
        raise DDMSyntaxError(
            f"unexpected token {tok.value!r} in expression", tok.line
        )


def _height(expr: A.Expr) -> int:
    """Levels of an expression tree (a leaf is 1), walked without
    recursion: a node's children are its fields that are not strings."""
    height, stack = 0, [(expr, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        for value in vars(node).values():
            if isinstance(value, tuple):
                stack.extend((child, level + 1) for child in value)
            elif not isinstance(value, str):
                stack.append((value, level + 1))
    return height


def _parse(parser: Parser, parse):
    """``parse()``, with nesting past the recursion limit raised at its
    line, as ``serve/protocol.loads`` does for the JSON parser."""
    try:
        return parse()
    except RecursionError:
        raise DDMSyntaxError("nesting too deep", parser.cur.line) from None


def parse_block(source: str, first_line: int = 1) -> list[A.Stmt]:
    """Parse a thread/section body into a statement list."""
    parser = Parser(tokenize(source, first_line))
    return _parse(parser, parser.parse_statements)


def parse_expression(source: str) -> A.Expr:
    """Parse a standalone expression (used for map(...) specs)."""
    parser = Parser(tokenize(source))
    expr = _parse(parser, parser.expression)
    if parser.cur.kind != "eof":
        raise DDMSyntaxError(
            f"trailing tokens after expression: {parser.cur.value!r}",
            parser.cur.line,
        )
    return expr
