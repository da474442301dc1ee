"""``tools/reach.py``'s branch classifier, on a synthetic module.

No entry runs: each test hands the AST block finder a function and the
line numbers its file executed, then judges the blocks against an
``ALLOW`` table of both key forms.
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
    findings = reach.judge(functions, {}, {"mod.py": LINES}, reached, set(), {"mod.py": EXECUTED})
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
