#!/usr/bin/env python
"""Which ``src/repro`` functions and parameter values does CI's traffic use?

Runs every command CI runs outside tier-1 (the paper claims, the
regenerated record, full-size traced ``perf/run.py`` on the four
workloads, the serve smoke, the deps/race checks, the examples and one
``tflux-run`` smoke per flag group) with a call profiler installed in
each process, and prints per package:

* ``dead``: a function no entry calls whose name no ``Name``/``Attribute``
  in ``src/`` mentions outside its own definition (a dunder counts as
  named: ``len``, ``in`` and ``+=`` call it without naming it);
* ``unexercised``: a function no entry calls that ``src/`` does name (an
  error path, a Protocol stub, a rare branch) — printed, never fatal;
* ``knob``: a literal-default parameter of a called function that no
  entry passes off its default.

Exits 1 on a dead function or a knob not on ``ALLOW``, on a stale
``ALLOW`` entry, or when an entry command exits with the wrong code.
A new ``src/`` function or parameter needs a caller here or an ``ALLOW``
entry with its reason.  No options::

    python tools/reach.py

The hook is a generated ``sitecustomize.py`` on ``PYTHONPATH``:
``sys.setprofile``/``threading.setprofile`` record the ``(file,
co_firstlineno, co_name)`` of each ``call`` event under ``src/repro``
and read ``f_locals`` at a function's first ``RESUME`` (not a
generator's later ones) for its literal defaults.
Each process dumps at ``atexit``; a forked ``multiprocessing`` child
leaves through ``os._exit``, so it re-arms with
``multiprocessing.util.register_after_fork`` and dumps from a
``Finalize``.
"""

from __future__ import annotations

import ast
import os
import pickle
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
BENCHES = ("trapez", "mmult", "fft", "qsort", "susan", "qsort_rec", "quad")
DDM_EXAMPLES = [
    *sorted(str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "examples" / "ddm").glob("*.ddm")),
    "examples/unrolled_loop.ddm",  # outside ddm/: perf's toolchain_check globs that one
]
PY_EXAMPLES = sorted(str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "examples").glob("*.py"))
RUN = ["python", "-m", "repro.cli"]
DDMCPP = ["python", "-m", "repro.preprocessor.cli"]
CACHE = ["python", "-m", "repro.exec.cachecli", "--dir", "{tmp}/cache"]

#: ``(argv, expected exit code)``, run in order from the repository root;
#: ``python`` is this interpreter and ``{tmp}`` a temporary directory.
ENTRIES: list[tuple[list[str], int]] = [
    # paper-claims: the 81 claims and the regenerated record
    (["python", "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"], 0),
    (["python", "-m", "repro.analysis.experiments", "{tmp}/EXPERIMENTS.md"], 0),
    # the benchmark at full size, traced, one repetition each
    *(
        (["python", "perf/run.py", "--workload", w, "--trace", "1", "--seconds", "0"], 0)
        for w in ("paper_grid", "fine_grain", "toolchain_check", "serve_mix")
    ),
    # serve-smoke and tier-1's schema governance step
    (["python", "tools/serve_smoke.py"], 0),
    (["python", "tools/check_record_schema.py"], 0),
    # deps-check
    *((DDMCPP + [f, "--check-deps"], 0) for f in DDM_EXAMPLES),
    (DDMCPP + ["tests/data/redundant_arc.ddm", "--check-deps"], 0),
    *((RUN + [b, "--check-deps"], 0) for b in BENCHES),
    # race-check: clean examples, caught fixtures, clean benchmarks
    *((DDMCPP + [f, "--check-races"], 0) for f in DDM_EXAMPLES),
    (DDMCPP + ["tests/data/undeclared_write.ddm", "--check-races"], 1),
    (DDMCPP + ["tests/data/racy_writers.ddm", "--check-races"], 1),
    *((RUN + [b, "--check-races", "--unroll", "2"], 0) for b in BENCHES),
    # examples-smoke: every example, the loop example on 4 kernels, and
    # the recursive QSORT on soft and dist
    *((["python", f], 0) for f in PY_EXAMPLES),
    (DDMCPP + ["examples/unrolled_loop.ddm", "--run", "--kernels", "4"], 0),
    (RUN + ["qsort_rec", "--platform", "soft", "--kernels", "4", "--size", "small", "--unroll", "8"], 0),
    (RUN + ["qsort_rec", "--platform", "dist", "--nodes", "2", "--size", "small", "--unroll", "8"], 0),
    # one tflux-run smoke per flag group
    *(
        (RUN + ["mmult", "--platform", p, "--kernels", "4", "--size", "small", "--unroll", "4"], 0)
        for p in ("hard", "soft", "cell", "dist")
    ),
    (RUN + ["trapez", "--platform", "hard", "--sweep", "--jobs", "2", "--size", "small", "--unroll", "2"], 0),
    (RUN + ["trapez", "--platform", "dist", "--sweep", "--size", "small", "--unroll", "2"], 0),
    (RUN + ["fft", "--platform", "soft", "--size", "small", "--unroll", "auto", "--cache-dir", "{tmp}/cache"], 0),
    (RUN + ["susan", "--size", "small", "--unroll", "4", "--check-native"], 0),
    (RUN + ["quad", "--size", "small", "--unroll", "4", "--trace-out", "{tmp}/trace.json"], 0),
    (RUN + ["qsort", "--platform", "dist", "--nodes", "4", "--topology", "fattree",
            "--cluster", "2", "--size", "small", "--unroll", "4"], 0),
    # tflux-cache over what the auto-unroll run stored, and ddmcpp's own run
    (CACHE + ["stats"], 0),
    (CACHE + ["prune", "--max-bytes", "1", "--max-age-days", "30"], 0),
    (DDMCPP + ["examples/ddm/derived_pipeline.ddm", "-o", "{tmp}/gen.py", "--run", "--kernels", "3"], 0),
]

#: What tests compare against and no CI command needs, keyed
#: ``path::Qualname`` (a function) or ``path::Qualname(param=)`` (a
#: knob), with the reason it stays.  The one list of kept oracles; the
#: only other entries are the CLI ``argv`` seam and server addresses.
ALLOW: dict[str, str] = {
    # structural oracles the property suites assert after every step
    "core/block.py::DDMBlock.check_invariants":
        "test_core_blocks_program checks every split block against it",
    "core/graph.py::ExpandedGraph.check_invariants":
        "test_core_graph checks every expansion's Ready Counts against its arcs",
    "tsu/group.py::TSUGroup.check_invariants":
        "test_tsu checks the SMs against the loaded block as the TSU runs",
    "sim/cache.py::CoherentMemorySystem.check_invariants":
        "test_cache checks the exact model's MESI directory after each access",
    # the fast memory model against itself and the exact model
    "sim/fastcache.py::FastMemorySystem._settled":
        "test_fastcache compares the fast paths' state through this non-destructive view",
    "sim/fastcache.py::FastMemorySystem.__init__(directory_words=)":
        "test_fastcache/test_directory_width pin the sharer directory width",
    "platforms/base.py::Platform.sequential_baseline(exact_memory=)":
        "the exact cache model, the fast model's oracle (JobSpec.exact_memory)",
    "runtime/simdriver.py::run_sequential_timed(exact_memory=)":
        "the exact cache model, the fast model's oracle (JobSpec.exact_memory)",
    # degenerate twins and cross-backend differentials
    "net/message.py::NetParams.zero_cost":
        "test_dist_differential holds one-node TFluxDist on a free network to TFluxSoft",
    "runtime/native.py::NativeRuntime.__init__(tsu_capacity=)":
        "test_backend_differential runs all three backends on the same block split",
    "runtime/native.py::NativeRuntime.__init__(tracer=)":
        "test_backend_differential compares the native span stream with the others",
    "runtime/simdriver.py::run_sequential_timed(tracer=)":
        "test_backend_differential compares the sequential span stream with the others",
    "platforms/base.py::Platform.sequential_baseline(tracer=)":
        "test_obs holds the baseline's gap-free span timeline to its cycles",
    # in-process CLI tests compare exit codes and output
    "cli.py::main(argv=)": "tests drive tflux-run in-process",
    "preprocessor/cli.py::main(argv=)": "tests drive ddmcpp in-process",
    "exec/cachecli.py::main(argv=)": "tests drive tflux-cache in-process",
    # deployment settings stay configurable; tests bind ephemeral ones
    "serve/server.py::TFluxServer.start(host=)": "tflux-serve --host",
    "serve/server.py::TFluxServer.start(port=)": "tflux-serve --port",
    "serve/server.py::TFluxServer.start(unix=)": "tflux-serve --unix",
    "serve/server.py::serve_in_thread(unix=)":
        "test_serve_server drives the unix-socket transport in-process",
}


@dataclass
class Function:
    path: str  # relative to src/repro
    qualname: str
    name: str
    first: int  # co_firstlineno: the first decorator's line, else the def's
    last: int
    defaults: tuple[tuple[str, object], ...]  # literal-default parameters

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def site(self) -> tuple[str, int, str]:
        """What the hook records: ``(path, co_firstlineno, co_name)``."""
        return (self.path, self.first, self.name)


_LITERALS = (type(None), bool, int, float, complex, str, bytes, tuple)


def _literal_defaults(args: ast.arguments) -> tuple[tuple[str, object], ...]:
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    out = []
    for arg, node in pairs:
        try:
            value = ast.literal_eval(node)
        except (ValueError, TypeError, SyntaxError):
            continue
        if isinstance(value, _LITERALS):
            out.append((arg.arg, value))
    return tuple(out)


def universe() -> tuple[list[Function], dict[str, list[tuple[str, int]]]]:
    """Every ``def`` under ``src/repro`` (nested ones included), and where
    each identifier appears as a ``Name`` or ``Attribute``."""
    functions: list[Function] = []
    mentions: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for file in sorted(SRC.rglob("*.py")):
        path = str(file.relative_to(SRC))
        tree = ast.parse(file.read_text(), filename=str(file))

        def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions.append(Function(
                        path, ".".join(scope + (child.name,)), child.name,
                        first, child.end_lineno, _literal_defaults(child.args),
                    ))
                    visit(child, scope + (child.name,))
                elif isinstance(child, ast.ClassDef):
                    visit(child, scope + (child.name,))
                else:
                    if isinstance(child, ast.Name):
                        mentions[child.id].append((path, child.lineno))
                    elif isinstance(child, ast.Attribute):
                        mentions[child.attr].append((path, child.lineno))
                    visit(child, scope)

        visit(tree, ())
    return functions, mentions


HOOK = '''\
import atexit, dis, os, pickle, sys, tempfile, threading
import multiprocessing.util as _mp_util

_ROOT = {root!r}
_OUT = {out!r}
with open(os.path.join(_OUT, "defaults.pickle"), "rb") as _f:
    _DEFAULTS = pickle.load(_f)
_RESUME = dis.opmap.get("RESUME")
_reached = set()
_off = set()
_state = {{}}  # code -> None (not ours, or every default seen off) or [key, pending]


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    try:
        state = _state[code]
    except KeyError:
        state = _state[code] = _first(code)
    if state is None:
        return
    if _RESUME is not None:
        at = frame.f_lasti
        raw = code.co_code
        if raw[at] == _RESUME and raw[at + 1] != 0:
            return  # a generator resuming, not a call
    local = frame.f_locals
    if local is None:
        return
    key, pending = state
    for item in list(pending):
        name, default = item
        if name in local:
            value = local[name]
            if type(value) is not type(default) or value != default:
                _off.add(key + (name,))
                pending.remove(item)
    if not pending:
        _state[code] = None


def _first(code):
    if not code.co_filename.startswith(_ROOT):
        return None
    key = (code.co_filename[len(_ROOT):], code.co_firstlineno, code.co_name)
    _reached.add(key)
    defaults = _DEFAULTS.get(key)
    return [key, list(defaults)] if defaults else None


def _dump():
    fd, path = tempfile.mkstemp(prefix="hits-", dir=_OUT)
    with os.fdopen(fd, "wb") as f:
        pickle.dump((_reached, _off), f)


def _after_fork(_):
    sys.setprofile(_profile)
    _mp_util.Finalize(None, _dump, exitpriority=-100)


class _Anchor:
    pass


_ANCHOR = _Anchor()
_mp_util.register_after_fork(_ANCHOR, _after_fork)
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def trace(functions: list[Function]) -> tuple[set, set, list[str]]:
    """Run every entry hooked; the function sites reached, the ``site +
    (param,)`` keys seen off their default, and the failed entries."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        out = Path(tmp) / "hits"
        out.mkdir()
        with open(out / "defaults.pickle", "wb") as f:
            pickle.dump({fn.site: fn.defaults for fn in functions if fn.defaults}, f)
        (Path(tmp) / "sitecustomize.py").write_text(
            HOOK.format(root=str(SRC) + os.sep, out=str(out))
        )
        env = dict(os.environ, PYTHONPATH=f"{tmp}{os.pathsep}{REPO_ROOT / 'src'}")
        for argv, expect in ENTRIES:
            argv = [sys.executable if a == "python" else a.format(tmp=tmp) for a in argv]
            start = time.perf_counter()
            run = subprocess.run(argv, cwd=REPO_ROOT, env=env, capture_output=True, text=True)
            shown = " ".join(argv[1:])
            print(f"reach: {time.perf_counter() - start:6.1f} s  {shown}", file=sys.stderr)
            if run.returncode != expect:
                tail = "\n".join((run.stdout + run.stderr).splitlines()[-20:])
                failures.append(f"{shown}: exit {run.returncode}, expected {expect}\n{tail}")
        reached, off = set(), set()
        for dump in out.glob("hits-*"):
            with open(dump, "rb") as f:
                r, o = pickle.load(f)
            reached |= r
            off |= o
    return reached, off, failures


def main() -> int:
    start = time.perf_counter()
    functions, mentions = universe()
    reached, off, failures = trace(functions)
    for failure in failures:
        print(f"reach: ENTRY FAILED: {failure}")

    # package -> [(verdict, where, allow-list key)]
    findings: dict[str, list[tuple[str, str, str]]] = defaultdict(list)
    for fn in functions:
        where = f"{fn.path}:{fn.first} {fn.qualname}"
        package = fn.path.split(os.sep)[0] if os.sep in fn.path else "repro"
        if fn.site not in reached:
            # a dunder is named by the syntax that calls it (len, in, +=)
            named = fn.name.startswith("__") and fn.name.endswith("__") or any(
                p != fn.path or not fn.first <= line <= fn.last
                for p, line in mentions.get(fn.name, ())
            )
            findings[package].append(("unexercised" if named else "dead", where, fn.key))
            continue
        for param, default in fn.defaults:
            if fn.site + (param,) not in off:
                findings[package].append(
                    ("knob", f"{where}({param}={default!r})", f"{fn.key}({param}=)")
                )

    counts = defaultdict(int)
    flagged, failing = set(), 0
    for package in sorted(findings):
        for verdict, where, key in sorted(findings[package]):
            counts[verdict] += 1
            fatal = verdict != "unexercised"
            if fatal:
                flagged.add(key)
            allowed = fatal and key in ALLOW
            print(f"{package}: {verdict} {where}{' (allowed)' if allowed else ''}")
            failing += fatal and not allowed
    stale = sorted(set(ALLOW) - flagged)
    for key in stale:
        print(f"reach: stale ALLOW entry {key}: nothing flags it")
    print(
        f"reach: {len(ENTRIES)} entries, {len(functions)} functions, "
        f"{len({fn.site for fn in functions} & reached)} reached; "
        f"{counts['dead']} dead, {counts['unexercised']} unexercised, "
        f"{counts['knob']} test-only knobs; {failing} not allowed; "
        f"{time.perf_counter() - start:.0f} s"
    )
    return 1 if failing or stale or failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
