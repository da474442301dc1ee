#!/usr/bin/env python
"""Per-call cost of the fast memory model's two sweep routes, by length.

``FastMemorySystem`` prices a sweep of up to its short-sweep cut line by
line on Python ints (``_sweep_lines``) and a longer one with NumPy
(``_sweep``).  This tool forces each route on the same seeded op streams
over a Bagle-sized machine (28 cores, 32 KB L1s, 2 MB L2s) and prints
microseconds per call for sweeps of 1 to 64 lines, in four columns:

* **single-issuer** (one issuing core, the sequential baseline) and
  **multi-core** (27 issuing cores);
* **ordinary** traffic — a random issuing core sweeps a random dense
  range of a 4,096-line region, one op in three a write — and
  **all-sharers** traffic — a write over a range that every issuing core
  has just read (the reads run untimed): on 27 cores the worst case for
  invalidation, on one a write over resident lines.

Both routes leave the same model state after every op, so the two
sides of a column see the same hits, misses, holes and downgrades.  The
tool only times: ``tests/test_fastcache_differential.py`` holds each
route, at the lengths the model sends it, to an independent reference
(cycles, ``CacheStats`` and state) after every op.  Each cell is the
fastest of ``--repeats`` runs, the two routes taking turns.  A cell
reads ``_sweep / _sweep_lines`` in µs, ``*`` on the route the model
takes at that length; the last row is each column's worst ratio of the
route taken to the other, at or below the cut.

    python tools/sweep_routes.py [--seed N] [--ops N] [--repeats N]

About 6 s with the defaults.  Host-dependent: quote the table with its
hardware.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.accesses import RegionSpace  # noqa: E402
from repro.sim.fastcache import (  # noqa: E402
    SHORT_SWEEP, SHORT_SWEEP_SINGLE, FastMemorySystem,
)
from repro.sim.machine import BAGLE_27  # noqa: E402

LENGTHS = (1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 28, 32, 40, 48, 64)
REGION_LINES = 4096
ISSUERS = 27
COLUMNS = (
    ("single-issuer", True, False),
    ("single-issuer all-sharers", True, True),
    ("multi-core", False, False),
    ("multi-core all-sharers", False, True),
)


def op_stream(seed: int, length: int, nops: int, single: bool,
              all_sharers: bool) -> list[tuple[list[int], int, int, bool]]:
    """``(untimed readers, core, first line, write?)`` per op."""
    rng = random.Random(f"{seed}:{length}:{single}:{all_sharers}")
    cores = [0] if single else list(range(ISSUERS))
    ops = []
    for _ in range(nops):
        start = rng.randrange(REGION_LINES - length + 1)
        core = rng.choice(cores)
        if all_sharers:
            ops.append((cores, core, start, True))
        else:
            ops.append(([], core, start, rng.random() < 1 / 3))
    return ops


def run_route(route: str, ops, length: int, single: bool) -> float:
    """Mean µs per timed call of *route* over *ops* on a fresh model."""
    m = BAGLE_27
    space = RegionSpace()
    space.region("R", REGION_LINES * m.l1.line_size)
    mem = FastMemorySystem(
        m.ncores, m.l1, m.l2, m.mem, space,
        l2_groups=m.l2_groups(), single_issuer=single,
    )
    # Fault the fresh arrays' pages in first (state unchanged), so no
    # route pays the kernel for a first touch.
    rs = mem._region_state("R")
    for arr in (rs.l1_last, rs.l2_last, rs.sharers, rs.presence):
        arr.fill(0)
    rs.owner.fill(-1)

    def sweep(core: int, start: int, write: bool) -> int:
        if route == "_sweep":
            return mem._sweep(core, "R", slice(start, start + length), length, write)
        return mem._sweep_lines(core, "R", range(start, start + length), write, True)

    clock = time.perf_counter_ns
    spent = 0
    for readers, core, start, write in ops:
        for reader in readers:
            sweep(reader, start, False)
        t0 = clock()
        sweep(core, start, write)
        spent += clock() - t0
    return spent / len(ops) / 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ops", type=int, default=200, help="timed ops per cell")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)

    cuts = {False: SHORT_SWEEP, True: SHORT_SWEEP_SINGLE}
    cells: dict[tuple[int, int], tuple[float, float]] = {}
    for col, (_name, single, all_sharers) in enumerate(COLUMNS):
        # The all-sharers columns time one write per 27 untimed reads.
        nops = args.ops // 4 if all_sharers and not single else args.ops
        for length in LENGTHS:
            ops = op_stream(args.seed, length, nops, single, all_sharers)
            best = {"_sweep": float("inf"), "_sweep_lines": float("inf")}
            for _ in range(args.repeats):  # alternating: the same host noise
                for route in best:
                    best[route] = min(best[route], run_route(route, ops, length, single))
            cells[col, length] = (best["_sweep"], best["_sweep_lines"])

    print(f"µs per call, `_sweep` / `_sweep_lines`; * marks the route taken "
          f"(cut {cuts[True]} lines single-issuer, {cuts[False]} multi-core)")
    print()
    print("| lines | " + " | ".join(name for name, _s, _a in COLUMNS) + " |")
    print("|---:|" + "---:|" * len(COLUMNS))
    for length in LENGTHS:
        row = []
        for col, (_name, single, _a) in enumerate(COLUMNS):
            vector, scalar = cells[col, length]
            if length <= cuts[single]:
                row.append(f"{vector:.0f} / {scalar:.1f}*")
            else:
                row.append(f"{vector:.0f}* / {scalar:.1f}")
        print(f"| {length} | " + " | ".join(row) + " |")
    worst = []
    for col, (_name, single, _a) in enumerate(COLUMNS):
        worst.append(max(
            cells[col, n][1] / cells[col, n][0] for n in LENGTHS if n <= cuts[single]
        ))
    print("| worst taken/other at or below the cut | "
          + " | ".join(f"{w:.2f}x" for w in worst) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
