"""Back-end stage 1: translate C-subset ASTs to Python source lines.

Translation rules:

* shared variables (``#pragma ddm var``) become ``_S.<name>`` accesses
  through the :class:`~repro.preprocessor.shim.SharedProxy`;
* ``CTX`` is the DThread context parameter;
* ``/`` and ``%`` go through :func:`~repro.preprocessor.shim.cdiv` /
  ``cmod`` so two-integer operands keep C truncation semantics;
* ``&&`` and ``||`` become ``(1 if L and R else 0)`` / ``(1 if L or R
  else 0)``: C's 0 or 1, with Python's short-circuit;
* canonical ``for (i = a; i < b; i += c)`` loops become Python ``range``
  loops (so ``break``/``continue`` behave exactly like C); non-canonical
  ``for`` loops fall back to a ``while`` transform, in which ``continue``
  is rejected (it would skip the update, silently diverging from C);
* calls are restricted to a whitelisted set of math intrinsics plus
  ``printf``.
"""

from __future__ import annotations

from typing import Optional

from repro.preprocessor import ast_nodes as A
from repro.preprocessor.errors import DDMSyntaxError

__all__ = ["CodeGenerator", "INTRINSICS"]

#: C intrinsic -> Python callable expression (available in generated scope).
INTRINSICS = {
    "sqrt": "_m.sqrt",
    "fabs": "abs",
    "abs": "abs",
    "sin": "_m.sin",
    "cos": "_m.cos",
    "tan": "_m.tan",
    "exp": "_m.exp",
    "log": "_m.log",
    "log2": "_m.log2",
    "pow": "pow",
    "floor": "_m.floor",
    "ceil": "_m.ceil",
    "fmin": "min",
    "fmax": "max",
    "min": "min",
    "max": "max",
    "printf": "_printf",
}

_ZERO = {"int": "0", "long": "0", "char": "0", "float": "0.0", "double": "0.0"}

_LOGICAL = {"&&": "and", "||": "or"}


class CodeGenerator:
    """Emits Python lines for one thread/section body."""

    def __init__(self, shared_names: set[str]) -> None:
        self.shared = shared_names
        self.lines: list[str] = []
        self._loop_depth_nc = 0  # inside non-canonical for transform?

    # -- emission helpers --------------------------------------------------
    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def gen_block(self, stmts: list[A.Stmt] | tuple[A.Stmt, ...], indent: int) -> None:
        emitted = False
        for stmt in stmts:
            before = len(self.lines)
            self.gen_stmt(stmt, indent)
            emitted = emitted or len(self.lines) > before
        if not emitted:
            self.emit(indent, "pass")

    # -- statements -----------------------------------------------------------
    def gen_stmt(self, stmt: A.Stmt, indent: int) -> None:
        if isinstance(stmt, A.Compound):
            for inner in stmt.body:
                self.gen_stmt(inner, indent)
            return
        if isinstance(stmt, A.Decl):
            for name, init in stmt.names:
                if name in self.shared:
                    raise DDMSyntaxError(
                        f"local declaration shadows shared variable {name!r}"
                    )
                if init is not None:
                    value = self.expr(init)
                    if stmt.ctype in ("int", "long", "char"):
                        # C truncates a floating initializer toward zero.
                        # (Later re-assignments are not type-tracked — a
                        # documented limitation of the C subset.)
                        value = f"int({value})"
                else:
                    value = _ZERO[stmt.ctype]
                self.emit(indent, f"{name} = {value}")
            return
        if isinstance(stmt, A.Assign):
            target = self.expr(stmt.target)
            value = self.expr(stmt.value)
            if stmt.op == "=":
                self.emit(indent, f"{target} = {value}")
            elif stmt.op in ("/=", "%="):
                fn = "_cdiv" if stmt.op == "/=" else "_cmod"
                self.emit(indent, f"{target} = {fn}({target}, {value})")
            else:
                self.emit(indent, f"{target} {stmt.op} {value}")
            return
        if isinstance(stmt, A.IncDec):
            target = self.expr(stmt.target)
            op = "+=" if stmt.op == "++" else "-="
            self.emit(indent, f"{target} {op} 1")
            return
        if isinstance(stmt, A.ExprStmt):
            self.emit(indent, self.expr(stmt.expr))
            return
        if isinstance(stmt, A.If):
            self.emit(indent, f"if {self.expr(stmt.cond)}:")
            self.gen_block([stmt.then], indent + 1)
            if stmt.other is not None:
                self.emit(indent, "else:")
                self.gen_block([stmt.other], indent + 1)
            return
        if isinstance(stmt, A.While):
            self.emit(indent, f"while {self.expr(stmt.cond)}:")
            saved = self._loop_depth_nc
            self._loop_depth_nc = 0  # continue is safe in a while loop
            self.gen_block([stmt.body], indent + 1)
            self._loop_depth_nc = saved
            return
        if isinstance(stmt, A.For):
            self.gen_for(stmt, indent)
            return
        if isinstance(stmt, A.Break):
            self.emit(indent, "break")
            return
        if isinstance(stmt, A.Continue):
            if self._loop_depth_nc:
                raise DDMSyntaxError(
                    "continue inside a non-canonical for loop is not supported "
                    "(it would skip the update expression)"
                )
            self.emit(indent, "continue")
            return
        if isinstance(stmt, A.Return):
            if stmt.value is None:
                self.emit(indent, "return")
            else:
                self.emit(indent, f"return {self.expr(stmt.value)}")
            return
        raise DDMSyntaxError(f"cannot generate code for {stmt!r}")

    # -- for-loop strategies ------------------------------------------------------
    def _canonical_range(self, stmt: A.For) -> Optional[tuple[str, str, str, str]]:
        """Recognise ``for (i=a; i<b; i+=c)``; returns (var, lo, hi, step)."""
        init = stmt.init
        var: Optional[str] = None
        lo: Optional[str] = None
        if isinstance(init, A.Assign) and isinstance(init.target, A.Name) and init.op == "=":
            var, lo = init.target.ident, self.expr(init.value)
        elif isinstance(init, A.Decl) and len(init.names) == 1 and init.names[0][1] is not None:
            var, lo = init.names[0][0], self.expr(init.names[0][1])
        if var is None or var in self.shared:
            return None
        cond = stmt.cond
        if not (
            isinstance(cond, A.BinOp)
            and cond.op in ("<", "<=", ">", ">=")
            and isinstance(cond.left, A.Name)
            and cond.left.ident == var
        ):
            return None
        hi = self.expr(cond.right)
        upd = stmt.update
        if isinstance(upd, A.IncDec) and isinstance(upd.target, A.Name) and upd.target.ident == var:
            step = "1" if upd.op == "++" else "-1"
        elif (
            isinstance(upd, A.Assign)
            and isinstance(upd.target, A.Name)
            and upd.target.ident == var
            and upd.op in ("+=", "-=")
        ):
            step = self.expr(upd.value)
            if upd.op == "-=":
                step = f"-({step})"
        else:
            return None
        sign = 1 if cond.op in ("<", "<=") else -1
        if (sign > 0) != (not step.startswith("-")):
            return None  # direction mismatch; fall back to while
        if cond.op == "<=":
            hi = f"({hi}) + 1"
        elif cond.op == ">=":
            hi = f"({hi}) - 1"
        return var, lo, hi, step

    def gen_for(self, stmt: A.For, indent: int) -> None:
        canon = self._canonical_range(stmt)
        if canon is not None:
            var, lo, hi, step = canon
            rng = f"range({lo}, {hi})" if step == "1" else f"range({lo}, {hi}, {step})"
            self.emit(indent, f"for {var} in {rng}:")
            saved = self._loop_depth_nc
            self._loop_depth_nc = 0  # continue maps directly to Python's
            self.gen_block([stmt.body], indent + 1)
            self._loop_depth_nc = saved
            return
        # General C for -> init; while cond: body; update.
        if stmt.init is not None:
            self.gen_stmt(stmt.init, indent)
        cond = self.expr(stmt.cond) if stmt.cond is not None else "True"
        self.emit(indent, f"while {cond}:")
        saved = self._loop_depth_nc
        self._loop_depth_nc = 1
        before = len(self.lines)
        self.gen_stmt(stmt.body, indent + 1)
        if stmt.update is not None:
            self.gen_stmt(stmt.update, indent + 1)
        if len(self.lines) == before:
            self.emit(indent + 1, "pass")
        self._loop_depth_nc = saved

    # -- expressions --------------------------------------------------------------
    def expr(self, e: A.Expr) -> str:
        if isinstance(e, A.Num):
            return e.literal
        if isinstance(e, A.Str):
            return e.literal
        if isinstance(e, A.Name):
            if e.ident == "CTX":
                return "CTX"
            if e.ident in self.shared:
                return f"_S.{e.ident}"
            return e.ident
        if isinstance(e, A.BinOp):
            left, right = self.expr(e.left), self.expr(e.right)
            if e.op == "/":
                return f"_cdiv({left}, {right})"
            if e.op == "%":
                return f"_cmod({left}, {right})"
            if e.op in _LOGICAL:
                return f"(1 if {left} {_LOGICAL[e.op]} {right} else 0)"
            return f"({left} {e.op} {right})"
        if isinstance(e, A.UnaryOp):
            operand = self.expr(e.operand)
            if e.op == "!":
                return f"(not {operand})"
            return f"({e.op}{operand})"
        if isinstance(e, A.Ternary):
            return (
                f"({self.expr(e.then)} if {self.expr(e.cond)} "
                f"else {self.expr(e.other)})"
            )
        if isinstance(e, A.Call):
            if e.func not in INTRINSICS:
                raise DDMSyntaxError(
                    f"call to {e.func!r} is not a supported intrinsic "
                    f"(supported: {', '.join(sorted(INTRINSICS))})"
                )
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{INTRINSICS[e.func]}({args})"
        if isinstance(e, A.Index):
            base = self.expr(e.base)
            idx = "][".join(self.expr(i) for i in e.indices)
            return f"{base}[{idx}]"
        raise DDMSyntaxError(f"cannot generate code for expression {e!r}")
