#!/usr/bin/env python
"""Guard the benchmark's host-independent counts against unexplained moves.

Every per-layer metric of ``perf/run.py --trace 1`` whose unit is exact
(``perf/compare.py::EXACT_UNITS`` — counts, simulated cycles and the ratios
of counts — plus ``platforms.model_error_pct``, as ``compare.py`` lists
them) is a pure function of the sources and the seed: engine events, TSU
and MMI traffic, memory-model hits and misses, simulations run, jobs
served.  A host-speed change must move none of them; a model change moves
them on purpose.  This tool runs the four workloads at ``--quick`` sizes
(~10 s, any host — wall-clock bounds resolve nothing on a 2-vCPU box) and
compares every such value with the committed reference:

    python tools/check_perf_counts.py            # verify (CI hotpath-smoke)
    python tools/check_perf_counts.py --update   # a move you can explain

It prints each differing name with both values and exits 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE = REPO_ROOT / "tests" / "data" / "perf_counts_quick.json"

sys.path.insert(0, str(REPO_ROOT))
from perf.compare import Side, load  # noqa: E402


def measure() -> dict[str, float]:
    """``{"workload metric": value}`` of one quick traced run of each."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "runs.json"
        run = subprocess.run(
            [sys.executable, str(REPO_ROOT / "perf" / "run.py"),
             "--quick", "--trace", "1", "--out", str(out)],
            capture_output=True, text=True,
        )
        if run.returncode:
            raise SystemExit(run.stdout + run.stderr)
        runs = load(str(out))
    failed = [r["workload"] for r in runs if not r["correct"]]
    if failed:
        raise SystemExit(f"perf counts: failed ops in {', '.join(failed)}")
    counts = {}
    for (workload, _seed, metric), values in Side(runs).deterministic().items():
        (counts[f"{workload} {metric}"],) = values
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="regenerate the reference from this checkout",
    )
    args = parser.parse_args(argv)
    name = REFERENCE.relative_to(REPO_ROOT)
    counts = measure()
    if args.update:
        REFERENCE.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
        print(f"reference regenerated: {name}")
        return 0
    reference = json.loads(REFERENCE.read_text())
    differing = [
        key for key in sorted(reference.keys() | counts.keys())
        if reference.get(key) != counts.get(key)
    ]
    for key in differing:
        print(f"perf counts: {key}: reference {reference.get(key)}, now {counts.get(key)}")
    print(f"{len(counts)} exact values compared with {name}, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
