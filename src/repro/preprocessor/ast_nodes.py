"""AST of the C-subset thread-body language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

__all__ = [
    "Expr",
    "Num",
    "Str",
    "Name",
    "BinOp",
    "UnaryOp",
    "Ternary",
    "Call",
    "Index",
    "Stmt",
    "Decl",
    "Assign",
    "ExprStmt",
    "IncDec",
    "If",
    "While",
    "For",
    "Break",
    "Continue",
    "Return",
    "Compound",
]


# -- expressions ------------------------------------------------------------
@dataclass(frozen=True)
class Num:
    """Numeric literal (kept as source text to preserve int/float-ness)."""

    literal: str


@dataclass(frozen=True)
class Str:
    """String literal, stored with its quotes."""

    literal: str


@dataclass(frozen=True)
class Name:
    """Identifier reference (shared variable, local, or ``CTX``)."""

    ident: str


@dataclass(frozen=True)
class BinOp:
    """Binary operation with C semantics for ``/`` and ``%``."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    """Prefix operator: ``-``, ``+``, ``!`` or ``~``."""

    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Ternary:
    """C conditional expression ``cond ? then : other``."""

    cond: "Expr"
    then: "Expr"
    other: "Expr"


@dataclass(frozen=True)
class Call:
    """Call to a whitelisted intrinsic (see ``cgen.INTRINSICS``)."""

    func: str
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Index:
    """(Possibly multi-dimensional) array subscript ``base[i][j]...``."""

    base: "Expr"
    indices: tuple["Expr", ...]


Expr = Union[Num, Str, Name, BinOp, UnaryOp, Ternary, Call, Index]


# -- statements ----------------------------------------------------------------
@dataclass(frozen=True)
class Decl:
    """Local declaration: ``int i, j = 2;``."""

    ctype: str
    names: tuple[tuple[str, Optional[Expr]], ...]  # (name, initializer)


@dataclass(frozen=True)
class Assign:
    """Plain or compound assignment to a name or subscript."""

    target: Expr  # Name or Index
    op: str  # "=", "+=", ...
    value: Expr


@dataclass(frozen=True)
class IncDec:
    """Statement-level ``x++`` / ``x--``."""

    target: Expr
    op: str  # "++" | "--"


@dataclass(frozen=True)
class ExprStmt:
    """Bare expression evaluated for effect (e.g. a ``printf`` call)."""

    expr: Expr


@dataclass(frozen=True)
class If:
    """``if``/``else`` statement."""

    cond: Expr
    then: "Stmt"
    other: Optional["Stmt"] = None


@dataclass(frozen=True)
class While:
    """``while`` loop."""

    cond: Expr
    body: "Stmt"


@dataclass(frozen=True)
class For:
    """C ``for`` loop (any of init/cond/update may be absent)."""

    init: Optional["Stmt"]
    cond: Optional[Expr]
    update: Optional["Stmt"]
    body: "Stmt"


@dataclass(frozen=True)
class Break:
    """``break`` statement."""


@dataclass(frozen=True)
class Continue:
    """``continue`` statement."""


@dataclass(frozen=True)
class Return:
    """``return`` (ends the DThread body early)."""

    value: Optional[Expr] = None


@dataclass(frozen=True)
class Compound:
    """Braced statement block (also used for the empty statement)."""

    body: tuple["Stmt", ...] = field(default_factory=tuple)


Stmt = Union[Decl, Assign, IncDec, ExprStmt, If, While, For, Break, Continue, Return, Compound]
