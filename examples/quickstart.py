#!/usr/bin/env python
"""Quickstart: write a DDM program three ways and run it everywhere.

This walks the whole TFlux stack on a small dot-product-style workload:

1. the decorator front-end (``repro.frontend.DDM``);
2. the DDMCPP pragma language (``repro.preprocessor``);
3. the raw ``ProgramBuilder`` API;

then executes the decorator version on all three simulated platforms
(TFluxHard / TFluxSoft / TFluxCell) and on the native threaded runtime —
the same program object everywhere, which is the paper's portability
claim in action.
"""

import numpy as np

from repro.core import ProgramBuilder
from repro.frontend import DDM
from repro.platforms import TFluxCell, TFluxHard, TFluxSoft
from repro.preprocessor import compile_to_program
from repro.runtime import NativeRuntime
from repro.sim.accesses import AccessSummary

N_CHUNKS = 16
CHUNK = 1024


def build_with_decorators():
    """The Pythonic way: decorators over plain functions."""
    ddm = DDM("dot-decorators")
    rng = np.random.default_rng(42)
    ddm.env.adopt("x", rng.standard_normal(N_CHUNKS * CHUNK))
    ddm.env.adopt("y", rng.standard_normal(N_CHUNKS * CHUNK))
    ddm.env.alloc("parts", N_CHUNKS)
    x, y, parts = (ddm.env.region(name) for name in ("x", "y", "parts"))

    # A cost model and an access summary make the timing meaningful
    # (docs/porting.md): each chunk streams its slices of x and y.
    @ddm.thread(
        contexts=N_CHUNKS,
        cost=lambda env, i: CHUNK * 4,
        accesses=lambda env, i: AccessSummary()
        .read(x, offset=i * CHUNK * 8, count=CHUNK)
        .read(y, offset=i * CHUNK * 8, count=CHUNK)
        .write(parts, offset=i * 8, count=1),
    )
    def partial_dot(env, i):
        lo, hi = i * CHUNK, (i + 1) * CHUNK
        env.array("parts")[i] = env.array("x")[lo:hi] @ env.array("y")[lo:hi]

    @ddm.thread(depends=[(partial_dot, "all")])
    def reduce_dot(env, _):
        env.set("dot", float(env.array("parts").sum()))

    return ddm.build()


PRAGMA_SOURCE = """
#pragma ddm startprogram name(dot_pragmas)
#pragma ddm var double parts[16]
#pragma ddm var double total

#pragma ddm thread 1 context(16)
  /* Stand-in workload: each DThread produces one partial value. */
  parts[CTX] = (CTX + 1) * 0.5;
#pragma ddm endthread

#pragma ddm thread 2 depends(1 all)
  int i;
  total = 0;
  for (i = 0; i < 16; i++) total = total + parts[i];
#pragma ddm endthread
#pragma ddm endprogram
"""


def build_with_builder():
    """The explicit way: the API the other two front-ends target."""
    b = ProgramBuilder("dot-builder")
    b.env.alloc("parts", N_CHUNKS)
    work = b.thread(
        "work",
        body=lambda env, i: env.array("parts").__setitem__(i, float(i)),
        contexts=N_CHUNKS,
    )
    total = b.thread(
        "total",
        body=lambda env, _: env.set("dot", float(env.array("parts").sum())),
    )
    b.depends(work, total, "all")
    return b.build()


def main() -> None:
    print("=== 1. decorator front-end, sequential oracle ===")
    expected = None
    prog = build_with_decorators()
    env = prog.run_sequential()
    expected = env.get("dot")
    print(f"dot = {expected:.6f}")

    print("\n=== 2. DDMCPP pragma language ===")
    env = compile_to_program(PRAGMA_SOURCE).run_sequential()
    print(f"total = {env.get('total')} (expect {sum((i + 1) * 0.5 for i in range(16))})")

    print("\n=== 3. ProgramBuilder ===")
    env = build_with_builder().run_sequential()
    print(f"dot = {env.get('dot')} (expect {sum(range(N_CHUNKS))})")

    print("\n=== 4. one program, every platform ===")
    for platform in (TFluxHard(), TFluxSoft(), TFluxCell()):
        prog = build_with_decorators()  # programs are single-run objects
        nk = min(4, platform.max_kernels)
        result = platform.execute(prog, nkernels=nk)
        ok = abs(result.env.get("dot") - expected) < 1e-9
        print(
            f"{platform.name:10s} kernels={nk} cycles={result.cycles:>10,d} "
            f"result={'OK' if ok else 'MISMATCH'}"
        )

    print("\n=== 5. native threaded runtime (real OS threads) ===")
    result = NativeRuntime(build_with_decorators(), nkernels=4).run()
    ok = abs(result.env.get("dot") - expected) < 1e-9
    print(
        f"native     kernels=4 wall={result.wall_seconds * 1e3:.1f}ms "
        f"result={'OK' if ok else 'MISMATCH'} "
        f"(tub pushes: {result.counters['tub.pushes']})"
    )


if __name__ == "__main__":
    main()
