"""Golden §5 baselines: what ``Platform.sequential_baseline`` measures, held byte for byte.

Every app at size small x unroll {1, 4} is timed on TFluxHard, TFluxSoft,
TFluxCell and TFluxDist(2) with the fast memory model, and ``trapez``,
``fft`` and ``qsort`` at unroll 1 on TFluxHard with the exact model.  Each
case contributes its cycles, region cycles, kernel snapshot, memory
statistics and a digest of its span list (collecting tracer).  The
rendering is held to ``tests/data/sequential_baselines.txt``, so a
change to how the baseline is executed or priced cannot move a number
unnoticed.

Regenerate, only for a timing change you can explain::

    PYTHONPATH=src python -m tests.test_sequential_baselines --update
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

from repro.apps import BENCHMARKS, get_benchmark, problem_sizes
from repro.obs import Tracer
from repro.platforms import TFluxCell, TFluxDist, TFluxHard, TFluxSoft

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "sequential_baselines.txt"
PLATFORMS = (
    ("hard", TFluxHard()),
    ("soft", TFluxSoft()),
    ("cell", TFluxCell()),
    ("dist2", TFluxDist(nnodes=2)),
)
EXACT = ("trapez", "fft", "qsort")


def _case(label, platform, name, unroll, exact_memory=False):
    """The rendered baseline of one (platform, app, unroll, memory model)."""
    size = problem_sizes(name, platform.target)["small"]
    prog = get_benchmark(name).build(size, unroll=unroll)
    tracer = Tracer()
    run = platform.sequential_baseline(
        prog, exact_memory=exact_memory, tracer=tracer
    )
    spans = hashlib.sha256(
        "\n".join(
            f"{s.kernel} {s.name} {s.kind} {s.start} {s.end}" for s in run.spans
        ).encode()
    ).hexdigest()[:16]
    (kernel,) = run.kernels
    return [
        f"== {label} {name} small unroll={unroll}",
        f"cycles {run.cycles} region {run.region_cycles}",
        f"kernel {dataclasses.asdict(kernel)}",
        f"memory {dataclasses.asdict(run.memory)}",
        f"spans {len(run.spans)} sha256:{spans}",
    ]


def render() -> str:
    lines = []
    for label, platform in PLATFORMS:
        for name in sorted(BENCHMARKS):
            for unroll in (1, 4):
                lines += _case(label, platform, name, unroll)
    for name in EXACT:
        lines += _case("hard-exact", PLATFORMS[0][1], name, 1, exact_memory=True)
    return "\n".join(lines) + "\n"


def test_sequential_baselines_match_golden():
    got = render()
    want = GOLDEN.read_text()
    assert got == want, (
        "sequential baselines moved; diff against tests/data/sequential_baselines.txt"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.test_sequential_baselines --update")
    GOLDEN.write_text(render())
