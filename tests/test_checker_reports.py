"""Golden checker reports: both checkers' verdicts on every shipped program.

``check_deps`` (static) and ``run_checked`` (dynamic) are run over the
seven apps at size small x unroll {1, 4} x deps {declared, derived},
every ``examples/ddm/*.ddm`` and the three seeded-bug fixtures under
``tests/data``.  Each program contributes its ``DepsReport.format()``,
every declared arc's status with its supported/total instance pairs, and
its ``CheckReport.format()`` with the recorded instance and op counts.
The rendering is held byte for byte to ``tests/data/checker_reports.txt``,
so a speed change to either checker cannot move a verdict unnoticed.

Regenerate, only for a verdict change you can explain::

    PYTHONPATH=src python -m tests.test_checker_reports --update
"""

import sys
from pathlib import Path

from repro.apps import BENCHMARKS, get_benchmark, problem_sizes
from repro.check import run_checked
from repro.core.deps import check_deps
from repro.preprocessor import compile_to_program

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "checker_reports.txt"
FIXTURES = ("racy_writers", "redundant_arc", "undeclared_write")


def _program_reports(label, build):
    """The rendered reports of one program (*build* makes a fresh one)."""
    deps = check_deps(build())
    check = run_checked(build())
    lines = [f"== {label}", "-- check_deps", deps.format()]
    lines += [
        f"arc {a.producer} -> {a.consumer}: {a.status} "
        f"{a.supported_pairs}/{a.total_pairs}"
        for a in deps.arcs
    ]
    lines += [
        "-- run_checked",
        check.format(),
        f"recorded: {check.instances_recorded} instances, {check.ops_recorded} ops",
    ]
    return lines


def render() -> str:
    lines = []
    for name in sorted(BENCHMARKS):
        bench = get_benchmark(name)
        size = problem_sizes(name, "S")["small"]
        for unroll in (1, 4):
            for deps in ("declared", "derived"):
                lines += _program_reports(
                    f"app {name} small unroll={unroll} deps={deps}",
                    lambda: bench.build(size, unroll=unroll, deps=deps),
                )
    sources = sorted((ROOT / "examples" / "ddm").glob("*.ddm")) + [
        ROOT / "tests" / "data" / f"{name}.ddm" for name in FIXTURES
    ]
    for path in sources:
        text = path.read_text()
        lines += _program_reports(
            path.relative_to(ROOT).as_posix(), lambda: compile_to_program(text)
        )
    return "\n".join(lines) + "\n"


def test_checker_reports_match_golden():
    got = render()
    want = GOLDEN.read_text()
    assert got == want, (
        "checker reports moved; diff against tests/data/checker_reports.txt"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.test_checker_reports --update")
    GOLDEN.write_text(render())
