"""Static guards on the paper-evaluation harness and on the docs.

Three things that rotted once and fail silently when they do:

* ``benchmarks/`` is the paper's claims as plain tests.  A ``benchmark``
  fixture parameter (or the plugin's "only" switch in a documented
  command) makes pytest skip every shape assertion while reporting
  green, which is how 81 of 116 items went unexecuted.
* The figure definitions the harness sweeps are the cells ``perf``'s
  ``paper_grid`` workload prices ``platforms.model_error_pct`` on.
* A ``path.py::symbol`` in the contributor docs names something that
  exists.
"""

from __future__ import annotations

import ast
import itertools
import re
from pathlib import Path

from repro.analysis import FIGURE5, FIGURE6, FIGURE7, FIGURES, PAPER

ROOT = Path(__file__).resolve().parent.parent


# -- (a) the harness cannot be half-skipped again ------------------------------
def test_no_benchmark_fixture_under_benchmarks():
    offenders = [
        f"{path.name}::{node.name}"
        for path in sorted((ROOT / "benchmarks").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "benchmark" in [a.arg for a in node.args.args + node.args.kwonlyargs]
    ]
    assert not offenders, f"timing hooks belong to perf/: {offenders}"


def _repo_files(*suffixes: str):
    skipped_dirs = {".git", "build", "dist", "out", "__pycache__", ".hypothesis"}
    for path in ROOT.rglob("*"):
        parts = path.relative_to(ROOT).parts
        if path.suffix not in suffixes or not path.is_file():
            continue
        if skipped_dirs & set(parts) or any(p.endswith(".egg-info") for p in parts):
            continue
        yield path


def test_no_document_or_config_names_the_benchmark_plugin():
    # Spelled in halves so this file passes its own scan.  CHANGES.md is
    # history and ISSUE.md is the task statement that quotes the old
    # command; everything else is a live instruction.
    needles = ("--benchmark" + "-only", "pytest" + "-benchmark", "--benchmark" + "-disable")
    offenders = [
        f"{path.relative_to(ROOT)}: {needle}"
        for path in _repo_files(".md", ".toml", ".yml", ".py")
        if path.name not in ("CHANGES.md", "ISSUE.md")
        for needle in needles
        if needle in path.read_text(errors="replace")
    ]
    assert not offenders, offenders


# -- (c) figure definitions == the cells perf's paper_grid reads ---------------
def test_figure_cells_are_the_printed_cells_perf_prices():
    source = (ROOT / "perf" / "workloads.py").read_text()
    read_by_perf = set(re.findall(r"\bPAPER\.(fig\w+)", source))
    assert read_by_perf == {"fig5_large_27", "fig6_best_6", "fig7_best_6"}
    assert FIGURE5.paper is PAPER.fig5_large_27
    assert FIGURE6.paper is PAPER.fig6_best_6
    assert FIGURE7.paper is PAPER.fig7_best_6
    assert [len(fig.paper) for fig in FIGURES] == [5, 5, 4]
    for fig in FIGURES:
        # every printed cell is a cell the figure's sweep produces
        assert set(fig.paper) == set(fig.benches)
        assert fig.platform().max_kernels >= fig.kernel_counts[-1]


# -- (b) doc references resolve ------------------------------------------------
DOCS = [ROOT / "CLAUDE.md", ROOT / "DESIGN.md", ROOT / "README.md"] + sorted(
    (ROOT / "docs").glob("*.md")
)
#: `path.py`, `dir/{a,b}.py`, `path.py::Symbol.attr` or `path.py::f()`.
_REF = re.compile(r"`([\w./{},-]+\.py)(?:::([\w.]+)(?:\(\))?)?`")
#: Docs abbreviate: `tests/x.py`, `repro/sim/x.py`, `sim/x.py`.
_BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")


def _expand_braces(path: str) -> list[str]:
    groups = re.split(r"\{([^}]*)\}", path)
    choices = [
        part.split(",") if i % 2 else [part] for i, part in enumerate(groups)
    ]
    return ["".join(combo) for combo in itertools.product(*choices)]


def _resolve(path: str) -> list[Path]:
    if "/" not in path:  # `base.py::X` inside a table row about one package
        return sorted((ROOT / "src" / "repro").rglob(path))
    return [b / path for b in _BASES if (b / path).is_file()]


def _names(body: list[ast.stmt]) -> dict[str, ast.stmt]:
    out: dict[str, ast.stmt] = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return out


def _has_symbol(file: Path, symbol: str) -> bool:
    top = _names(ast.parse(file.read_text()).body)
    classes = [n for n in top.values() if isinstance(n, ast.ClassDef)]
    head, _, attr = symbol.partition(".")
    if attr:
        owner = top.get(head)
        return isinstance(owner, ast.ClassDef) and attr in _names(owner.body)
    return head in top or any(head in _names(c.body) for c in classes)


def _doc_references():
    for doc in DOCS:
        for match in _REF.finditer(doc.read_text()):
            path, symbol = match.groups()
            if "/" not in path and symbol is None:
                continue  # a bare `name.py` is prose, not a path
            for expanded in _expand_braces(path):
                yield doc.name, expanded, symbol


def test_doc_references_resolve():
    references = list(_doc_references())
    assert len(references) > 100  # the scan is really reading the docs
    broken = []
    for doc, path, symbol in references:
        files = _resolve(path)
        if not files:
            broken.append(f"{doc}: `{path}` does not exist")
        elif symbol and not any(_has_symbol(f, symbol) for f in files):
            broken.append(f"{doc}: `{path}::{symbol}` names nothing in {path}")
    assert not broken, "\n".join(broken)
