"""Front-end stage 1: recognise ``#pragma ddm`` directives.

Splits a DDM source file into directive records and the raw C-subset body
text between them.  This stage is target-independent (the paper's
"front-end is a parser tool which is independent of the TFlux
implementation").

Directive grammar (one per line)::

    #pragma ddm startprogram name(<ident>)
    #pragma ddm endprogram
    #pragma ddm var <ctype> <ident>[dim][dim...]      -- shared variable
    #pragma ddm block <int>                            -- optional blocks
    #pragma ddm endblock
    #pragma ddm prologue | endprologue                 -- sequential code
    #pragma ddm epilogue | endepilogue
    #pragma ddm thread <int> [context(<int>)]
                     [depends(<int> <same|all|map(<expr>)>) ...]
                     [cond(<int> <int> [same|all]) ...]
                     [reads(<access>) ...] [writes(<access>) ...]
    #pragma ddm endthread
    #pragma ddm for thread <int> [unroll(<int>)] [depends(...) ...]
      for (<var> = <const>; <var> < <const>; <var> += <const>) { ... }
    #pragma ddm endfor                             -- loop DThread: the
                     iteration space is split into one instance per
                     ``unroll`` iterations (constant bounds required)
    #pragma ddm subflow name(<ident>)              -- dynamic sub-graph:
      <thread directives, ids local to the subflow>
    #pragma ddm endsubflow

``CTX`` inside a thread body (and inside ``map(...)``) is the instance's
context value.

Access clauses (the Couillard-style alternative to explicit arcs): a
``reads(...)``/``writes(...)`` clause declares the slice of a shared
array the thread instance touches, in one of three forms::

    reads(A)                 -- the whole array
    reads(A[CTX])            -- one element (any CTX expression)
    reads(A[CTX*4 .. CTX*4 + 4])  -- the half-open range [lo, hi)

Expressions may use ``CTX``, integer constants and arithmetic.  When
every arc-less thread carries access clauses, the back-end derives the
synchronization graph from them (:mod:`repro.core.deps`) instead of
requiring ``depends(...)`` declarations.

Dynamic graphs (see :mod:`repro.core.dynamic`): a ``cond(p k)`` clause
declares a *conditional* arc from thread ``p``, taken only when ``p``'s
body chose branch key ``k`` by assigning the reserved ``DDMCHOICE``
variable.  A ``subflow`` block declares a spawnable sub-graph; a body
spawns it by assigning its name to the reserved ``DDMSPAWN`` variable
(``DDMSPAWN = refine;``), and the back-end ships a fresh instance of the
sub-graph as the thread's outcome.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.preprocessor.errors import DDMSyntaxError

__all__ = [
    "AccessClause",
    "Dependence",
    "CondDependence",
    "SharedVar",
    "ThreadDirective",
    "SubflowSource",
    "ProgramSource",
    "split_directives",
]

_PRAGMA_RE = re.compile(r"^\s*#\s*pragma\s+ddm\b(.*)$")
_COND_RE = re.compile(r"(?<![A-Za-z0-9_])cond\(([^)]*)\)")
_NAME_RE = re.compile(r"name\(\s*([A-Za-z_]\w*)\s*\)")
_CONTEXT_RE = re.compile(r"context\(\s*(\d+)\s*\)")
_UNROLL_RE = re.compile(r"unroll\(\s*(\d+)\s*\)")
_VAR_RE = re.compile(
    r"^\s*(int|long|float|double|char)\s+([A-Za-z_]\w*)((?:\s*\[\s*\d+\s*\])*)\s*$"
)
_DIM_RE = re.compile(r"\[\s*(\d+)\s*\]")


@dataclass(frozen=True)
class Dependence:
    """One producer declaration on a thread directive."""

    producer: int
    mapping: str  # "same" | "all" | "map"
    map_expr: Optional[str] = None


@dataclass(frozen=True)
class AccessClause:
    """One ``reads(...)``/``writes(...)`` clause on a thread directive.

    ``lo_expr``/``hi_expr`` are CTX-expressions (still C-subset text):
    both ``None`` means the whole array; ``lo_expr`` alone means the
    single element at that index; both mean the half-open element range
    ``[lo, hi)``.
    """

    kind: str  # "read" | "write"
    var: str
    lo_expr: Optional[str] = None
    hi_expr: Optional[str] = None


@dataclass(frozen=True)
class CondDependence:
    """One ``cond(producer key [mapping])`` clause: a conditional arc
    taken when the producer's ``DDMCHOICE`` equals *key*."""

    producer: int
    key: int
    mapping: str = "same"  # "same" | "all"


@dataclass(frozen=True)
class SharedVar:
    """A ``#pragma ddm var`` declaration."""

    ctype: str
    name: str
    dims: tuple[int, ...] = ()

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass
class ThreadDirective:
    """A thread plus its body text (still unparsed C subset)."""

    tid: int
    context: int = 1
    depends: list[Dependence] = field(default_factory=list)
    conds: list[CondDependence] = field(default_factory=list)
    accesses: list[AccessClause] = field(default_factory=list)
    body: str = ""
    body_line: int = 0
    block: Optional[int] = None
    #: Loop-thread (``#pragma ddm for thread``): the body is one canonical
    #: C for loop whose iteration space is split across instances.
    is_loop: bool = False
    #: Iterations per instance for loop-threads.
    unroll: int = 1


@dataclass
class SubflowSource:
    """A ``#pragma ddm subflow`` block: a spawnable sub-graph whose
    thread ids are local to the subflow."""

    name: str
    threads: list[ThreadDirective] = field(default_factory=list)


@dataclass
class ProgramSource:
    """The directive-level decomposition of one DDM source file."""

    name: str
    variables: list[SharedVar] = field(default_factory=list)
    threads: list[ThreadDirective] = field(default_factory=list)
    subflows: list[SubflowSource] = field(default_factory=list)
    prologue: str = ""
    prologue_line: int = 0
    epilogue: str = ""
    epilogue_line: int = 0
    blocks_declared: list[int] = field(default_factory=list)


def _parse_thread_header(rest: str, lineno: int) -> ThreadDirective:
    m = re.match(r"\s*(\d+)\b", rest)
    if not m:
        raise DDMSyntaxError("thread directive needs a numeric id", lineno)
    td = ThreadDirective(tid=int(m.group(1)))
    cm = _CONTEXT_RE.search(rest)
    if cm:
        td.context = int(cm.group(1))
        if td.context < 1:
            raise DDMSyntaxError("context(...) must be >= 1", lineno)
    td.depends = _scan_depends(rest, lineno)
    for cm in _COND_RE.finditer(rest):
        inner = cm.group(1).strip()
        im = re.match(r"(\d+)\s+(-?\d+)(?:\s+(same|all))?$", inner)
        if not im:
            raise DDMSyntaxError(
                f"malformed cond({inner!r}): expected "
                "cond(<producer> <int-key> [same|all])",
                lineno,
            )
        td.conds.append(
            CondDependence(
                int(im.group(1)), int(im.group(2)), im.group(3) or "same"
            )
        )
    for word, kind in (("reads", "read"), ("writes", "write")):
        for inner in _scan_clauses(rest, word, lineno):
            td.accesses.append(_parse_access(kind, inner, lineno))
    return td


def _scan_clauses(rest: str, word: str, lineno: int):
    """Extract ``word(...)`` clause bodies, balancing parentheses."""
    out = []
    pos = 0
    needle = word + "("
    while True:
        start = rest.find(needle, pos)
        if start < 0:
            return out
        if start and (rest[start - 1].isalnum() or rest[start - 1] == "_"):
            pos = start + len(needle)  # part of a longer identifier
            continue
        i = start + len(needle)
        depth = 1
        while i < len(rest) and depth:
            if rest[i] == "(":
                depth += 1
            elif rest[i] == ")":
                depth -= 1
            i += 1
        if depth:
            raise DDMSyntaxError(f"unbalanced parentheses in {word}(...)", lineno)
        out.append(rest[start + len(needle):i - 1].strip())
        pos = i


def _parse_access(kind: str, inner: str, lineno: int) -> AccessClause:
    m = re.match(r"^([A-Za-z_]\w*)\s*(?:\[(.*)\]\s*)?$", inner, re.S)
    if not m:
        raise DDMSyntaxError(
            f"malformed access clause {inner!r}: expected "
            "<var>, <var>[<expr>] or <var>[<lo> .. <hi>]",
            lineno,
        )
    var, subscript = m.group(1), m.group(2)
    if subscript is None:
        return AccessClause(kind, var)
    parts = [p.strip() for p in subscript.split("..")]
    if len(parts) > 2:
        raise DDMSyntaxError(
            f"access range {subscript!r} has more than one '..'", lineno
        )
    if not all(parts):
        raise DDMSyntaxError(
            f"empty index expression in access clause {inner!r}", lineno
        )
    if len(parts) == 1:
        return AccessClause(kind, var, lo_expr=parts[0])
    return AccessClause(kind, var, lo_expr=parts[0], hi_expr=parts[1])


def _scan_depends(rest: str, lineno: int) -> list[Dependence]:
    """Parse the depends(...) clauses of a thread header; map() specs
    may contain nested calls like ``map(min(CTX / 2, 7))``."""
    out = []
    for inner in _scan_clauses(rest, "depends", lineno):
        m = re.match(r"(\d+)\s+(.*)$", inner, re.S)
        if not m:
            raise DDMSyntaxError(f"malformed depends({inner!r})", lineno)
        producer = int(m.group(1))
        spec = m.group(2).strip()
        if spec in ("same", "all"):
            out.append(Dependence(producer, spec))
        elif spec.startswith("map(") and spec.endswith(")"):
            out.append(Dependence(producer, "map", spec[len("map("):-1]))
        else:
            raise DDMSyntaxError(
                f"dependence spec must be same/all/map(...), got {spec!r}",
                lineno,
            )
    return out


def split_directives(source: str) -> ProgramSource:
    """First front-end pass: directives + raw body slices."""
    lines = source.splitlines()
    prog: Optional[ProgramSource] = None
    ended = False
    current_thread: Optional[ThreadDirective] = None
    current_subflow: Optional[SubflowSource] = None
    current_section: Optional[str] = None  # "prologue" | "epilogue"
    body_lines: list[str] = []
    body_start = 0
    current_block: Optional[int] = None

    def require_prog(lineno: int) -> ProgramSource:
        if prog is None:
            raise DDMSyntaxError("directive before startprogram", lineno)
        if ended:
            raise DDMSyntaxError("directive after endprogram", lineno)
        return prog

    for lineno, raw in enumerate(lines, start=1):
        m = _PRAGMA_RE.match(raw)
        if not m:
            if current_thread is not None or current_section is not None:
                body_lines.append(raw)
            elif raw.strip() and prog is not None and not ended:
                raise DDMSyntaxError(
                    f"code outside any thread/prologue/epilogue: {raw.strip()!r}",
                    lineno,
                )
            continue

        rest = m.group(1).strip()
        keyword = rest.split("(")[0].split()[0] if rest else ""

        if keyword == "startprogram":
            if prog is not None:
                raise DDMSyntaxError("nested startprogram", lineno)
            nm = _NAME_RE.search(rest)
            prog = ProgramSource(name=nm.group(1) if nm else "ddm_program")
            continue

        p = require_prog(lineno)

        if keyword == "endprogram":
            if current_thread is not None:
                raise DDMSyntaxError("endprogram inside thread", lineno)
            if current_subflow is not None:
                raise DDMSyntaxError("endprogram inside subflow", lineno)
            ended = True
        elif keyword == "subflow":
            if current_thread is not None or current_section is not None:
                raise DDMSyntaxError("subflow inside thread/section", lineno)
            if current_subflow is not None:
                raise DDMSyntaxError("nested subflow", lineno)
            nm = _NAME_RE.search(rest)
            if not nm:
                raise DDMSyntaxError("subflow directive needs name(...)", lineno)
            current_subflow = SubflowSource(name=nm.group(1))
        elif keyword == "endsubflow":
            if current_thread is not None:
                raise DDMSyntaxError("endsubflow inside thread", lineno)
            if current_subflow is None:
                raise DDMSyntaxError("endsubflow without subflow", lineno)
            if not current_subflow.threads:
                raise DDMSyntaxError(
                    f"subflow {current_subflow.name!r} declares no threads", lineno
                )
            p.subflows.append(current_subflow)
            current_subflow = None
        elif keyword == "var":
            decl = rest[len("var"):].strip()
            vm = _VAR_RE.match(decl)
            if not vm:
                raise DDMSyntaxError(f"malformed var declaration {decl!r}", lineno)
            dims = tuple(int(d) for d in _DIM_RE.findall(vm.group(3)))
            p.variables.append(SharedVar(vm.group(1), vm.group(2), dims))
        elif keyword == "block":
            bm = re.match(r"block\s+(\d+)", rest)
            if not bm:
                raise DDMSyntaxError("block directive needs an id", lineno)
            current_block = int(bm.group(1))
            p.blocks_declared.append(current_block)
        elif keyword == "endblock":
            current_block = None
        elif keyword == "thread":
            if current_thread is not None or current_section is not None:
                raise DDMSyntaxError("nested thread/section", lineno)
            current_thread = _parse_thread_header(rest[len("thread"):], lineno)
            current_thread.block = current_block
            body_lines = []
            current_thread.body_line = lineno + 1
        elif keyword == "for":
            if current_thread is not None or current_section is not None:
                raise DDMSyntaxError("nested thread/section", lineno)
            if current_subflow is not None:
                raise DDMSyntaxError(
                    "'for thread' is not supported inside a subflow", lineno
                )
            after = rest[len("for"):].strip()
            if not after.startswith("thread"):
                raise DDMSyntaxError("expected 'for thread <id> ...'", lineno)
            current_thread = _parse_thread_header(after[len("thread"):], lineno)
            current_thread.is_loop = True
            um = _UNROLL_RE.search(after)
            if um:
                current_thread.unroll = int(um.group(1))
                if current_thread.unroll < 1:
                    raise DDMSyntaxError("unroll(...) must be >= 1", lineno)
            current_thread.block = current_block
            body_lines = []
            current_thread.body_line = lineno + 1
        elif keyword == "endfor":
            if current_thread is None or not current_thread.is_loop:
                raise DDMSyntaxError("endfor without 'for thread'", lineno)
            current_thread.body = "\n".join(body_lines)
            p.threads.append(current_thread)
            current_thread = None
        elif keyword == "endthread":
            if current_thread is None:
                raise DDMSyntaxError("endthread without thread", lineno)
            if current_thread.is_loop:
                raise DDMSyntaxError("'for thread' must close with endfor", lineno)
            current_thread.body = "\n".join(body_lines)
            if current_subflow is not None:
                current_subflow.threads.append(current_thread)
            else:
                p.threads.append(current_thread)
            current_thread = None
        elif keyword in ("prologue", "epilogue"):
            if current_thread is not None or current_section is not None:
                raise DDMSyntaxError(f"nested {keyword}", lineno)
            if current_subflow is not None:
                raise DDMSyntaxError(f"{keyword} inside subflow", lineno)
            current_section = keyword
            body_lines = []
            body_start = lineno + 1
        elif keyword in ("endprologue", "endepilogue"):
            want = keyword[3:]
            if current_section != want:
                raise DDMSyntaxError(f"{keyword} without {want}", lineno)
            text = "\n".join(body_lines)
            if want == "prologue":
                p.prologue, p.prologue_line = text, body_start
            else:
                p.epilogue, p.epilogue_line = text, body_start
            current_section = None
        else:
            raise DDMSyntaxError(f"unknown ddm directive {keyword!r}", lineno)

    if prog is None:
        raise DDMSyntaxError("no '#pragma ddm startprogram' found", 1)
    if current_thread is not None:
        raise DDMSyntaxError(f"thread {current_thread.tid} never closed", len(lines))
    if current_subflow is not None:
        raise DDMSyntaxError(
            f"subflow {current_subflow.name!r} never closed", len(lines)
        )
    if current_section is not None:
        raise DDMSyntaxError(f"{current_section} never closed", len(lines))
    if not ended:
        raise DDMSyntaxError("missing '#pragma ddm endprogram'", len(lines))
    if not prog.threads:
        raise DDMSyntaxError("program declares no threads", len(lines))
    _check_scope(prog.name, prog.threads)
    sf_names: set[str] = set()
    shared_names = {v.name for v in prog.variables}
    for sf in prog.subflows:
        if sf.name in sf_names:
            raise DDMSyntaxError(f"duplicate subflow name {sf.name!r}")
        sf_names.add(sf.name)
        if sf.name in shared_names:
            raise DDMSyntaxError(
                f"subflow name {sf.name!r} collides with a shared variable"
            )
        _check_scope(f"subflow {sf.name}", sf.threads)
    return prog


def _check_scope(scope: str, threads: list[ThreadDirective]) -> None:
    """Thread ids unique and arcs (plain + conditional) resolvable within
    one scope — the program or one subflow."""
    seen: set[int] = set()
    for t in threads:
        if t.tid in seen:
            raise DDMSyntaxError(f"duplicate thread id {t.tid} in {scope}")
        seen.add(t.tid)
    for t in threads:
        for dep in t.depends:
            if dep.producer not in seen:
                raise DDMSyntaxError(
                    f"thread {t.tid} depends on unknown thread {dep.producer}"
                )
        for c in t.conds:
            if c.producer not in seen:
                raise DDMSyntaxError(
                    f"thread {t.tid} cond-depends on unknown thread {c.producer}"
                )
