"""``tools/reach.py``'s branch classifier and default rules, on synthetic modules.

No CI entry runs: the block tests hand the AST block finder a function
and the line numbers its file executed, then judge the blocks against an
``ALLOW`` table of both key forms; the default tests run the real hook
over one ``python -c`` line against a throwaway ``repro`` package.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parent.parent / "tools" / "reach.py"
)
reach = sys.modules["reach"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

SOURCE = '''\
def pick(flag):
    """Docstring."""
    global COUNT
    if flag:
        value = 1
    else:
        value = 2
        value += 1
    try:
        value = int(value)
    except ValueError:
        value = 0
    if value < 0:
        value = -value
        raise ValueError(value)

    def inner():
        return value

    return inner


def guard(y):
    if y:
        return y
    z = y + 1
    if z > 3:
        raise ValueError(z)
'''
LINES = SOURCE.splitlines()
#: What a run with ``pick(True)`` and ``guard(1)`` executes.
EXECUTED = {4, 5, 9, 10, 13, 20, 24, 25}


@pytest.fixture(scope="module")
def functions():
    tree = ast.parse(SOURCE)
    return [
        reach.Function("mod.py", node.name, node.name, node.lineno, node.end_lineno, (), node)
        for node in tree.body
    ]


def _blocks(fn):
    return [(b.first, b.last, b.text, b.verdict) for b in reach.blocks(fn.node, EXECUTED, LINES)]


def test_blocks_of_pick(functions):
    # The unrun else arm is a branch; the except body and the guarded
    # list ending in raise (an assignment before it) are unexercised.
    # The docstring, the global and the nested def make no block.
    assert _blocks(functions[0]) == [
        (7, 8, "value = 2", "branch"),
        (12, 12, "value = 0", "unexercised"),
        (14, 15, "value = -value", "unexercised"),
    ]


def test_unrun_guard_without_else_is_unexercised(functions):
    # The block's last statement is an if with no else around a raise.
    assert _blocks(functions[1]) == [(26, 28, "z = y + 1", "unexercised")]


def test_allow_key_forms(functions, capsys):
    reached = {fn.site for fn in functions}
    findings = reach.judge(
        functions, {}, {"mod.py": LINES}, reached, set(), {"mod.py": EXECUTED}, {}
    )
    verdicts = [(verdict, keys) for verdict, _, keys in findings["repro"]]
    assert ("branch", ("mod.py::pick", "mod.py::pick:value = 2")) in verdicts

    counts, failing, stale = reach.report(findings, {})
    assert (counts["branch"], counts["unexercised"], failing, stale) == (1, 3, 1, [])

    for key in ("mod.py::pick", "mod.py::pick:value = 2"):
        allow = {key: "reason", "mod.py::pick:value = 9": "stale", "mod.py::guard": "stale"}
        _, failing, stale = reach.report(findings, allow)
        assert failing == 0
        # an unexercised block flags nothing, so guard's key is stale too
        assert stale == ["mod.py::guard", "mod.py::pick:value = 9"]
    assert "(allowed)" in capsys.readouterr().out


PACKAGE = '''\
from dataclasses import dataclass


@dataclass(frozen=True)
class Table:
    a: int = 1
    b: int = 2


@dataclass
class State:
    n: int = 0


TABLE = Table()


def run(table=TABLE, other=Table(), flag=False):
    def inner(t=table):
        return t

    return inner()


class Box:
    @staticmethod
    def make(table=TABLE):
        return table
'''
#: Equal to the defaults (a new ``Table()``), off them (``Table(a=5)``),
#: and a mutable dataclass built off its default.
CALLS = "from repro.mod import *; run(Table(), Table(a=5)); Box.make(Table(a=5)); State(n=3)"


@pytest.fixture(scope="module")
def hooked(tmp_path_factory):
    """Judge the throwaway package after one hooked ``python -c`` run."""
    root = tmp_path_factory.mktemp("reach")
    (root / "src" / "repro").mkdir(parents=True)
    (root / "src" / "repro" / "__init__.py").write_text("")
    (root / "src" / "repro" / "mod.py").write_text(PACKAGE)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reach, "REPO_ROOT", root)
        patch.setattr(reach, "SRC", root / "src" / "repro")
        patch.setattr(reach, "ENTRIES", [(["python", "-c", CALLS], 0)])
        functions, mentions, sources = reach.universe()
        reached, off, fields, lines, failures = reach.trace(functions)
    assert failures == []
    findings = reach.judge(functions, mentions, sources, reached, off, lines, fields)
    return fields, {(v, w): keys for v, w, keys in findings["repro"] if "knob" in v}


def test_equal_object_is_on_default_and_a_different_one_off(hooked):
    _, knobs = hooked
    where = "mod.py:18 run"
    # run(Table(), Table(a=5)): an equal Table() stays on TABLE, Table(a=5)
    # is off other's Table(), and flag is never passed
    assert ("object knob", f"{where}(table=TABLE)") in knobs
    assert ("object knob", f"{where}(other=Table())") not in knobs
    assert ("knob", f"{where}(flag=False)") in knobs
    # a staticmethod's defaults are read through the class __dict__
    assert not any("Box.make" in w for _, w in knobs)


def test_nested_binding_default_is_skipped(hooked):
    _, knobs = hooked
    assert not any("inner" in w for _, w in knobs)


def test_frozen_fields_are_judged_and_mutable_ones_not(hooked):
    fields, knobs = hooked
    # State is mutable: constructed off its default, and still unjudged
    assert fields == {("mod.py", "Table"): (("a", "1"), ("b", "2"))}
    assert [(k, keys) for k, keys in knobs.items() if k[0] == "field knob"] == [
        (("field knob", "mod.py Table.b=2"), ("mod.py::Table.b", "mod.py::Table")),
    ]


def test_class_key_covers_every_field_and_goes_stale(hooked, capsys):
    _, knobs = hooked
    findings = {"repro": [(v, w, keys) for (v, w), keys in knobs.items()]}
    allow = {"mod.py::run(table=)": "r", "mod.py::run(flag=)": "r", "mod.py::Table": "constants"}
    assert reach.report(findings, allow)[1:] == (0, [])
    # a mutable class, and a field the entry set off its default, are stale
    allow |= {"mod.py::State": "state", "mod.py::Table.a": "set by the entry"}
    assert reach.report(findings, allow)[1:] == (0, ["mod.py::State", "mod.py::Table.a"])
    assert "(allowed)" in capsys.readouterr().out
