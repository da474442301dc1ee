"""Back-end stage 2: assemble programs / emit Python modules.

Mirrors DDMCPP's back-end, which "generate[s] the code required for the
TFlux runtime support such as the Kernel code and the DThreads load
operations to the TSU": the emitted Python module contains one function
per DThread body plus a ``build_program()`` that performs every runtime
registration (environment allocation, thread declaration, dependence
arcs).  :func:`compile_to_program` executes that same emitted module, so
the textual output and the in-memory path can never diverge.
"""

from __future__ import annotations

import re as _re

from typing import Optional

import numpy as np

import math

from repro.core.program import DDMProgram
from repro.preprocessor import ast_nodes as A
from repro.preprocessor.cgen import CodeGenerator
from repro.preprocessor.directives import (
    SharedVar,
    ThreadDirective,
    split_directives,
)
from repro.preprocessor.errors import DDMSyntaxError
from repro.preprocessor.parser import parse_block, parse_expression
from repro.preprocessor.shim import cdiv as _cdiv_const, cmod as _cmod_const

__all__ = ["emit_module", "compile_to_program"]

_DTYPES = {
    "int": "np.int64",
    "long": "np.int64",
    "float": "np.float32",
    "double": "np.float64",
    "char": "np.uint8",
}

#: Bytes per element for access-clause footprints (matches _DTYPES).
_ITEMSIZE = {"int": 8, "long": 8, "float": 4, "double": 8, "char": 1}

_HEADER = '''"""Generated by ddmcpp — do not edit.

Source program: {name!r}.
"""

import math as _m

import numpy as np

from repro.core.builder import ProgramBuilder
from repro.preprocessor.shim import SharedProxy, c_printf as _printf, cdiv as _cdiv, cmod as _cmod
'''


def _gen_body_function(
    fname: str,
    body: str,
    body_line: int,
    shared: set[str],
    args: str,
    prelude: tuple[str, ...] = (),
    returns: Optional[str] = None,
) -> list[str]:
    stmts = parse_block(body, first_line=body_line)
    gen = CodeGenerator(shared)
    lines = [f"def {fname}({args}):", "    _S = SharedProxy(env)"]
    lines.extend(f"    {p}" for p in prelude)
    gen.gen_block(stmts, indent=1)
    lines.extend(gen.lines)
    if returns is not None:
        lines.append(f"    return {returns}")
    if len(lines) == 2:
        lines.append("    pass")
    return lines


def _outcome_plumbing(t, cond_producers: set[int], subflow_names: list[str]):
    """Prelude/return lines wiring the reserved ``DDMCHOICE`` (branch
    key) and ``DDMSPAWN`` (subflow) outcome variables into a body.

    Purely textual detection: bodies that never mention the reserved
    names (every static program) get the unchanged zero-overhead
    emission.  Each subflow name a spawning body mentions is bound to
    its builder function; the tail calls it so every spawn ships a
    fresh :class:`~repro.core.dynamic.Subflow`.
    """
    uses_choice = t.tid in cond_producers or "DDMCHOICE" in t.body
    uses_spawn = "DDMSPAWN" in t.body
    prelude: list[str] = []
    if uses_choice:
        prelude.append("DDMCHOICE = None")
    if uses_spawn:
        prelude.append("DDMSPAWN = None")
        for name in subflow_names:
            if _re.search(rf"\b{name}\b", t.body):
                prelude.append(f"{name} = _subflow_{name}")
    if uses_spawn and uses_choice:
        returns = "DDMSPAWN() if DDMSPAWN is not None else DDMCHOICE"
    elif uses_spawn:
        returns = "DDMSPAWN() if DDMSPAWN is not None else None"
    elif uses_choice:
        returns = "DDMCHOICE"
    else:
        returns = None
    return tuple(prelude), returns


def _const_int(expr: "A.Expr", what: str) -> int:
    """Evaluate a constant integer expression (loop bounds of for-threads)."""
    gen = CodeGenerator(set())
    code = gen.expr(expr)
    try:
        value = eval(  # noqa: S307 - generated from our own grammar
            code,
            {"__builtins__": {}, "_m": math, "_cdiv": _cdiv_const,
             "_cmod": _cmod_const, "abs": abs, "min": min, "max": max,
             "pow": pow},
        )
    except Exception as exc:
        raise DDMSyntaxError(f"{what} must be a constant expression: {exc}") from exc
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise DDMSyntaxError(f"{what} must be an integer constant, got {value!r}")
    return value


def _gen_loop_thread_function(
    fname: str, t, shared: set[str]
) -> tuple[list[str], int]:
    """Generate the body of a ``for thread``; returns (lines, ncontexts).

    The single canonical for loop's iteration space [lo, hi) with positive
    step is split into contexts of ``unroll`` iterations each.
    """
    stmts = [
        st for st in parse_block(t.body, first_line=t.body_line)
        if not (isinstance(st, A.Compound) and not st.body)
    ]
    # C-style declarations (`int i;`, `double scale = 0.5;`) may precede
    # the loop; they are emitted ahead of it in the generated function.
    leading: list[A.Decl] = []
    while len(stmts) > 1 and isinstance(stmts[0], A.Decl):
        leading.append(stmts.pop(0))
    if len(stmts) != 1 or not isinstance(stmts[0], A.For):
        raise DDMSyntaxError(
            f"'for thread {t.tid}' body must be exactly one for loop "
            "(optionally preceded by declarations)"
        )
    loop = stmts[0]
    # Reuse the canonical-loop recogniser, then force constant bounds.
    gen = CodeGenerator(shared)
    canon = gen._canonical_range(loop)
    if canon is None:
        raise DDMSyntaxError(
            f"'for thread {t.tid}': loop must be canonical "
            "(for (i = a; i < b; i += c) with a simple local index)"
        )
    var, lo_src, hi_src, step_src = canon
    # Re-derive the bound expressions from the AST for constant folding.
    if isinstance(loop.init, A.Assign):
        lo = _const_int(loop.init.value, "loop start")
    else:
        lo = _const_int(loop.init.names[0][1], "loop start")
    assert isinstance(loop.cond, A.BinOp)
    hi = _const_int(loop.cond.right, "loop bound")
    if loop.cond.op == "<=":
        hi += 1
    elif loop.cond.op not in ("<",):
        raise DDMSyntaxError(
            f"'for thread {t.tid}': only ascending loops (< / <=) supported"
        )
    if isinstance(loop.update, A.IncDec):
        step = 1
    else:
        step = _const_int(loop.update.value, "loop step")
    if step <= 0:
        raise DDMSyntaxError(f"'for thread {t.tid}': step must be positive")
    trip = max(0, -(-(hi - lo) // step))
    if trip == 0:
        raise DDMSyntaxError(f"'for thread {t.tid}': empty iteration space")
    ncontexts = -(-trip // t.unroll)

    body_gen = CodeGenerator(shared)
    lines = [
        f"def {fname}(env, CTX):",
        "    _S = SharedProxy(env)",
    ]
    decl_gen = CodeGenerator(shared)
    for decl in leading:
        decl_gen.gen_stmt(decl, indent=1)
    lines.extend(decl_gen.lines)
    lines.extend([
        f"    _start = {lo} + CTX * {t.unroll * step}",
        f"    _stop = min(_start + {t.unroll * step}, {hi})",
        f"    for {var} in range(_start, _stop, {step}):",
    ])
    body_gen.gen_block([loop.body], indent=2)
    lines.extend(body_gen.lines)
    return lines, ncontexts


def _ctx_expr(expr_src: str, where: str) -> str:
    """Compile a CTX-only expression of a map(...) or access clause."""
    expr = parse_expression(expr_src)
    gen = CodeGenerator(set())  # shared vars are not allowed in clauses
    try:
        return gen.expr(expr)
    except DDMSyntaxError as exc:
        raise DDMSyntaxError(f"in {where}: {exc}") from exc


def _gen_access_function(
    fname: str, t: ThreadDirective, variables: dict[str, SharedVar]
) -> list[str]:
    """``def _acc_thread_N(env, CTX):`` — the thread's AccessSummary.

    The emitted function is the Couillard analogue of the compiler's
    read/write-set analysis: the deriver (:mod:`repro.core.deps`)
    consumes exactly these footprints to compute the arcs.
    """
    lines = [f"def {fname}(env, CTX):", "    s = AccessSummary()"]
    for ac in t.accesses:
        v = variables.get(ac.var)
        where = f"{ac.kind}s({ac.var}...) on thread {t.tid}"
        if v is None:
            raise DDMSyntaxError(
                f"{where}: unknown shared variable {ac.var!r}"
            )
        if not v.is_array:
            raise DDMSyntaxError(
                f"{where}: access clauses require an array variable"
            )
        esize = _ITEMSIZE[v.ctype]
        reg = f"env.region({ac.var!r})"
        if ac.lo_expr is None:
            call = f"s.{ac.kind}({reg}, elem_size={esize})"
        else:
            if len(v.dims) != 1:
                raise DDMSyntaxError(
                    f"{where}: indexed access clauses require a 1-D array"
                )
            lo = _ctx_expr(ac.lo_expr, where)
            if ac.hi_expr is None:
                call = (
                    f"s.{ac.kind}({reg}, offset=int({lo}) * {esize}, "
                    f"count=1, elem_size={esize})"
                )
            else:
                hi = _ctx_expr(ac.hi_expr, where)
                call = (
                    f"s.{ac.kind}({reg}, offset=int({lo}) * {esize}, "
                    f"count=int({hi}) - int({lo}), elem_size={esize})"
                )
        lines.append(f"    {call}")
    lines.append("    return s")
    return lines


def _gen_subflow_builder(sf) -> list[str]:
    """``def _subflow_<name>():`` — builds a fresh spawnable Subflow.

    Called at spawn time from a body's outcome tail, so every spawn of
    the same declaration ships a distinct graph epoch.
    """
    lines = [f"def _subflow_{sf.name}():", f"    sf = Subflow({sf.name!r})"]
    for t in sf.threads:
        lines.append(
            f'    t{t.tid} = sf.thread("{sf.name}_{t.tid}", '
            f"body=_sf_{sf.name}_thread_{t.tid}, contexts={t.context})"
        )
    lines.extend(_gen_arcs("sf", sf.threads))
    lines.append("    return sf")
    return lines


def _gen_arcs(receiver: str, threads) -> list[str]:
    """The ``.depends(...)``/``.cond(...)`` registrations of one scope
    (the program's ``b`` or a subflow's ``sf``), in consumer order.  A
    thread's handle is ``t<tid>``; directives.py has already checked
    that every producer names a thread of the same scope."""
    lines = []
    for t in threads:
        for dep in t.depends:
            if dep.mapping == "map":
                src = dep.map_expr or "CTX"
                mapping = f"lambda CTX: [int({_ctx_expr(src, f'map({src})')})]"
            else:
                mapping = repr(dep.mapping)
            lines.append(
                f"    {receiver}.depends(t{dep.producer}, t{t.tid}, {mapping})"
            )
        for c in t.conds:
            lines.append(
                f"    {receiver}.cond(t{c.producer}, t{t.tid}, "
                f"{c.key}, {c.mapping!r})"
            )
    return lines


def emit_module(source: str) -> str:
    """Preprocess DDM source text into a standalone Python module."""
    prog = split_directives(source)
    shared = {v.name for v in prog.variables}
    if "CTX" in shared:
        raise DDMSyntaxError("'CTX' is reserved and cannot be a shared variable")

    parts: list[str] = [_HEADER.format(name=prog.name)]
    subflow_names = [sf.name for sf in prog.subflows]
    if prog.subflows:
        parts.append("from repro.core.dynamic import Subflow")
    has_accesses = any(t.accesses for t in prog.threads)
    if has_accesses:
        parts.append("from repro.sim.accesses import AccessSummary")
    for sf in prog.subflows:
        for t in sf.threads:
            if t.accesses:
                raise DDMSyntaxError(
                    "access clauses are not supported inside subflows "
                    f"(thread {t.tid} of subflow {sf.name!r})"
                )
    for reserved in ("DDMCHOICE", "DDMSPAWN"):
        if reserved in shared:
            raise DDMSyntaxError(
                f"{reserved!r} is reserved and cannot be a shared variable"
            )

    variables = {v.name: v for v in prog.variables}
    cond_producers = {c.producer for t in prog.threads for c in t.conds}
    loop_contexts: dict[int, int] = {}
    for t in prog.threads:
        parts.append("")
        if t.is_loop:
            lines, ncontexts = _gen_loop_thread_function(
                f"_thread_{t.tid}", t, shared
            )
            loop_contexts[t.tid] = ncontexts
            parts.extend(lines)
        else:
            prelude, returns = _outcome_plumbing(t, cond_producers, subflow_names)
            parts.extend(
                _gen_body_function(
                    f"_thread_{t.tid}", t.body, t.body_line, shared, "env, CTX",
                    prelude=prelude, returns=returns,
                )
            )
        if t.accesses:
            parts.append("")
            parts.extend(
                _gen_access_function(f"_acc_thread_{t.tid}", t, variables)
            )
    for sf in prog.subflows:
        sf_conds = {c.producer for t in sf.threads for c in t.conds}
        for t in sf.threads:
            parts.append("")
            prelude, returns = _outcome_plumbing(t, sf_conds, subflow_names)
            parts.extend(
                _gen_body_function(
                    f"_sf_{sf.name}_thread_{t.tid}", t.body, t.body_line,
                    shared, "env, CTX", prelude=prelude, returns=returns,
                )
            )
        parts.append("")
        parts.extend(_gen_subflow_builder(sf))
    if prog.prologue.strip():
        parts.append("")
        parts.extend(
            _gen_body_function(
                "_prologue", prog.prologue, prog.prologue_line, shared, "env"
            )
        )
    if prog.epilogue.strip():
        parts.append("")
        parts.extend(
            _gen_body_function(
                "_epilogue", prog.epilogue, prog.epilogue_line, shared, "env"
            )
        )

    parts.append("")
    parts.append("")
    parts.append("def build_program():")
    parts.append(f'    b = ProgramBuilder({prog.name!r})')
    for v in prog.variables:
        dtype = _DTYPES[v.ctype]
        if v.is_array:
            shape = ", ".join(str(d) for d in v.dims)
            parts.append(f'    b.env.alloc({v.name!r}, ({shape},), dtype={dtype})')
        else:
            init = "0" if v.ctype in ("int", "long", "char") else "0.0"
            parts.append(f'    b.env.set({v.name!r}, {init})')
    if prog.prologue.strip():
        parts.append('    b.prologue("prologue", body=_prologue)')
    for t in prog.threads:
        contexts = loop_contexts.get(t.tid, t.context)
        acc = f", accesses=_acc_thread_{t.tid}" if t.accesses else ""
        parts.append(
            f'    t{t.tid} = b.thread("thread_{t.tid}", body=_thread_{t.tid}, '
            f"contexts={contexts}, tid={t.tid}{acc})"
        )
    parts.extend(_gen_arcs("b", prog.threads))
    # Couillard mode: when the program declares access clauses and no
    # explicit arcs at all, the graph is derived from the footprints.
    has_arcs = any(t.depends or t.conds for t in prog.threads)
    if has_accesses and not has_arcs:
        parts.append("    b.auto_depends()")
    if prog.epilogue.strip():
        parts.append('    b.epilogue("epilogue", body=_epilogue)')
    parts.append("    return b.build()")

    parts.append("")
    parts.append("")
    parts.append('if __name__ == "__main__":')
    parts.append("    env = build_program().run_sequential()")
    parts.append(f"    print('program {prog.name} finished')")
    parts.append("")
    return "\n".join(parts)


def compile_to_program(source: str) -> DDMProgram:
    """Preprocess and build the DDM program object in one step.

    Executes the emitted module text, so this path is byte-identical to
    saving ``emit_module`` output and importing it.
    """
    module_src = emit_module(source)
    namespace: dict = {"__name__": "ddmcpp_generated"}
    exec(compile(module_src, "<ddmcpp>", "exec"), namespace)
    return namespace["build_program"]()
