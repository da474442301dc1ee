"""Golden emitted modules: the SHA-256 of ``emit_module``'s output for
every shipped ``.ddm`` source and the property tests' seeded programs.

The sources are ``examples/ddm/*.ddm``, ``examples/unrolled_loop.ddm``,
every ``tests/data/*.ddm`` and a fixed grid of the generators in
``tests/test_preprocessor_property.py``.  Each digest is held to
``tests/data/emitted_digests.txt``, so a speed change to the lexer, the
parser or the code generator cannot move one emitted byte unnoticed.

Regenerate, only for an emission change you can explain::

    PYTHONPATH=src python -m tests.test_preprocessor_golden --update
"""

import hashlib
import sys
from pathlib import Path

from repro.preprocessor import emit_module
from tests.test_preprocessor_property import (
    fanout_program,
    loop_program,
    randexpr_program,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "emitted_digests.txt"


def sources() -> list[tuple[str, str]]:
    """(label, DDM source) for every program whose emission is pinned."""
    paths = (
        sorted((ROOT / "examples" / "ddm").glob("*.ddm"))
        + [ROOT / "examples" / "unrolled_loop.ddm"]
        + sorted((ROOT / "tests" / "data").glob("*.ddm"))
    )
    out = [(p.relative_to(ROOT).as_posix(), p.read_text()) for p in paths]
    out += [
        (f"randexpr seed={seed} depth={depth}", randexpr_program(seed, depth)[0])
        for seed in range(20)
        for depth in range(1, 5)
    ]
    out += [
        (f"loop n={n} unroll={u} step={s} scale={k}", loop_program(n, u, s, k))
        for n, u, s, k in ((1, 1, 1, 0), (7, 3, 2, -3), (40, 16, 5, 3), (33, 4, 1, 1))
    ]
    out += [
        (f"fanout width={w} fan={f}", fanout_program(w, f))
        for w, f in ((1, 1), (6, 2), (10, 3), (10, 4))
    ]
    return out


def render() -> str:
    return "".join(
        f"{hashlib.sha256(emit_module(text).encode()).hexdigest()}  {label}\n"
        for label, text in sources()
    )


def test_emitted_modules_match_golden():
    got = render().splitlines()
    want = GOLDEN.read_text().splitlines()
    moved = [line for line in got if line not in want]
    assert got == want, f"emitted modules moved: {moved[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.test_preprocessor_golden --update")
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
