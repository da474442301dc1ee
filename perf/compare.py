#!/usr/bin/env python3
"""Compare result files written by ``perf/run.py --out``.

    python3 perf/compare.py A.json            # how steady is one set of runs
    python3 perf/compare.py A.json B.json     # is B no worse than A

A result file holds several runs per workload (run the benchmark ten or
more times into it, one ``--seed`` per run).  For every workload and
end-to-end metric the table gives each side's median, quartiles and run
count, the run-to-run spread (distance between the quartiles as a share of
the median) and a verdict under the metric's bound in ``BENCHMARK.json``:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  a side's spread exceeds the bound, or a run was taken on a
                loaded host (``noisy``), and not every run of B reads
                better than every run of A

Failed ops and the deterministic results (simulated cycles and every exact
count, compared between runs of the same seed) are listed after it.  Exits
1 when any row regressed or any run has failed ops that A did not have.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: per-layer metrics with these units are exact: they must repeat run to run
EXACT_UNITS = ("count", "cycles", "1/instance", "1/cell", "ratio", "B/job")


def load(path: str) -> list[dict]:
    return json.loads(Path(path).read_text())["runs"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is its own."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Side:
    """One result file: end-to-end values per (workload, metric)."""

    def __init__(self, runs: list[dict]) -> None:
        self.runs = runs
        self.values: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.noisy: set[str] = set()
        self.failed: dict[str, int] = defaultdict(int)
        for run in runs:
            self.failed[run["workload"]] += run["failed"]
            if run["trace"]:
                continue
            if run["host"]["noisy"]:
                self.noisy.add(run["workload"])
            for name, metric in run["metrics"].items():
                self.values[run["workload"], name].append(metric["value"])

    def spread(self, key: tuple[str, str]) -> float:
        q1, median, q3 = quartiles(self.values[key])
        return (q3 - q1) / median if median else 0.0

    def cell(self, key: tuple[str, str]) -> str:
        q1, median, q3 = quartiles(self.values[key])
        return f"{median:11.4f} [{q1:10.4f},{q3:10.4f}] n={len(self.values[key]):<2d}"

    def deterministic(self) -> dict[tuple[str, int, str], set]:
        """(workload, seed, name) -> the values seen for everything that
        must repeat: more than one value means it did not."""
        out: dict[tuple[str, int, str], set] = defaultdict(set)
        for run in self.runs:
            key = (run["workload"], run["seed"])
            if run["trace"]:
                for name, metric in run["metrics"].items():
                    if metric["unit"] in EXACT_UNITS or name == "platforms.model_error_pct":
                        out[key + (name,)].add(metric["value"])
            else:
                out[key + ("fingerprint",)].add(run["fingerprint"])
        return out


def verdict(a: Side, b: Side, key: tuple[str, str], metric: dict) -> tuple[float, str]:
    """(share by which B's median is worse than A's, verdict)."""
    av, bv = a.values[key], b.values[key]
    _, a_med, _ = quartiles(av)
    _, b_med, _ = quartiles(bv)
    lower = metric["better"] == "lower"
    worse_by = ((b_med - a_med) if lower else (a_med - b_med)) / a_med
    b_always_better = max(bv) < min(av) if lower else min(bv) > max(av)
    loose = max(a.spread(key), b.spread(key)) > metric["bound"]
    noisy = key[0] in a.noisy | b.noisy
    if (loose or noisy) and not (b_always_better and not noisy):
        return worse_by, "unresolved"
    return worse_by, "regressed" if worse_by > metric["bound"] else "ok"


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = Side(load(argv[1]))
    b = Side(load(argv[2])) if len(argv) == 3 else None
    bad = False

    for workload in (w["name"] for w in spec["workloads"]):
        print(f"\n== {workload}")
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a.values or (b is not None and key not in b.values):
                continue
            row = f"  {metric['name']:16s} {metric['unit']:7s} A {a.cell(key)}"
            if b is None:
                spread = a.spread(key)
                state = (
                    "steady" if spread <= metric["bound"] / 3
                    else "within bound" if spread <= metric["bound"]
                    else "UNSTEADY"
                )
                row += f"  spread {100 * spread:5.1f}% of bound {100 * metric['bound']:.0f}%  {state}"
            else:
                worse_by, word = verdict(a, b, key, metric)
                bad |= word == "regressed"
                row += (
                    f"  B {b.cell(key)}  spread {100 * a.spread(key):4.1f}%/"
                    f"{100 * b.spread(key):4.1f}%  worse by {100 * worse_by:+6.1f}%  {word}"
                )
            print(row)
        failed = f"  failed ops: A {a.failed[workload]}"
        if b is not None:
            failed += f", B {b.failed[workload]}"
            bad |= b.failed[workload] > a.failed[workload]
        else:
            bad |= a.failed[workload] > 0
        print(failed)

    print("\n== deterministic results (same seed, same workload)")
    mine = a.deterministic()
    theirs = b.deterministic() if b is not None else {}
    for label, seen in (("A", mine), ("B", theirs)):
        for (workload, seed, name), values in sorted(seen.items()):
            if len(values) > 1:
                print(f"  NOT REPEATABLE within {label}: {workload} seed {seed} "
                      f"{name}: {sorted(values)}")
    if b is not None:
        shared = sorted(mine.keys() & theirs.keys())
        changed = [key for key in shared if mine[key] != theirs[key]]
        print(f"  {len(shared)} values compared between A and B, {len(changed)} differ")
        for key in changed:
            workload, seed, name = key
            print(f"  {workload} seed {seed} {name}: "
                  f"A {sorted(mine[key])}  B {sorted(theirs[key])}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
