"""``tflux-run`` — run a Table-1 benchmark on a TFlux platform.

Examples::

    tflux-run trapez --platform hard --kernels 27 --size large
    tflux-run mmult --platform cell --kernels 6 --size small --unroll 64
    tflux-run qsort --platform soft --kernels 6 --sweep --jobs 4
    tflux-run susan --platform hard --sweep --cache-dir ~/.cache/tflux
    tflux-run fft --platform dist --nodes 4 --size small
    tflux-run trapez --platform dist --sweep         # sweeps --nodes

``--jobs`` and ``--cache-dir`` are command-line spellings of the
``TFLUX_JOBS`` / ``TFLUX_CACHE_DIR`` knobs (see docs/simulation.md,
"Running the harness fast"); explicit flags win over the environment.
"""

from __future__ import annotations

import argparse
import os

from repro.apps import BENCHMARKS, problem_sizes
from repro.exec import ENV_CACHE_DIR, ENV_JOBS, UNROLL_LADDER
from repro.exec import EvalRequest, evaluate_many
from repro.platforms import PLATFORMS, TOPOLOGIES, TFluxDist, platform_from_name
from repro.sim.capability import MAX_CORES, MAX_NODES

__all__ = ["main"]


def _ladder(maximum: int, rungs: tuple[int, ...] = (2, 4, 8, 16)) -> list[int]:
    """The sweep ladder: the standard *rungs* that fit under *maximum*,
    plus *maximum* itself, deduplicated and sorted (a platform whose max
    coincides with a rung — e.g. 16 kernels — must not be run twice)."""
    return sorted({r for r in rungs if r <= maximum} | {maximum})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tflux-run", description="Run a TFlux workload on a platform"
    )
    parser.add_argument("benchmark", choices=sorted(BENCHMARKS))
    parser.add_argument("--platform", choices=sorted(PLATFORMS), default="hard")
    parser.add_argument("--kernels", type=int, default=0, help="0 = platform max")
    parser.add_argument("--size", choices=("small", "medium", "large"), default="small")
    parser.add_argument(
        "--unroll",
        default="0",
        help="a fixed unroll factor, 0 = best over the full grid, or "
        "'auto' = adaptive search (coarse probes + local refinement, "
        "same winner as the grid in fewer simulations)",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=0,
        help="message-passing nodes (dist platform only; 0 = platform default)",
    )
    parser.add_argument(
        "--topology",
        choices=tuple(TOPOLOGIES),
        default="mesh",
        help="fabric wiring between dist nodes (mesh = dedicated pairwise "
        "links; fattree = pods of 8 with full bisection; spine = pods of 8 "
        "behind a 4:1 oversubscribed spine)",
    )
    parser.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="SIZE",
        help="relay TSU fan-out through cluster heads of SIZE nodes "
        "(dist platform only; 0 = flat point-to-point fan-out)",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="sweep kernel counts 2..max (node counts 1..max on dist)",
    )
    parser.add_argument(
        "--jobs",
        default=None,
        help=f"worker processes for the sweep (overrides {ENV_JOBS}; 'auto' = all cores)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"persistent result cache directory (overrides {ENV_CACHE_DIR})",
    )
    parser.add_argument(
        "--check-native",
        action="store_true",
        help="after evaluating, re-run the first cell's program on the "
        "native (OS-thread) runtime and verify its functional output — "
        "the same Kernel step machine on a different backend",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome-trace JSON timeline of one run at the best "
        "unroll (open in Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--check-deps",
        action="store_true",
        help="instead of evaluating, diagnose the benchmark's declared "
        "synchronization graph against the dependence graph derived from "
        "its access summaries; exit 1 if any dependence is missing",
    )
    parser.add_argument(
        "--check-races",
        action="store_true",
        help="instead of evaluating, run the benchmark once functionally "
        "under the dynamic race detector (recorded footprints vs declared "
        "summaries, races vs the happens-before order); exit 1 on findings",
    )
    args = parser.parse_args(argv)
    if args.unroll != "auto":
        # Mirror the evaluate-path error contract (stderr + exit code 2,
        # not argparse's SystemExit) — the CLI tests rely on it.
        try:
            args.unroll = int(args.unroll)
        except ValueError:
            args.unroll = -1
        if args.unroll < 0:
            import sys

            print(
                "tflux-run: error: --unroll must be a factor >= 0 or 'auto'",
                file=sys.stderr,
            )
            return 2

    # The exec layer reads the knobs from the environment at call time;
    # flags simply override it for this invocation.
    if args.jobs is not None:
        os.environ[ENV_JOBS] = str(args.jobs)
    if args.cache_dir is not None:
        os.environ[ENV_CACHE_DIR] = os.path.expanduser(args.cache_dir)

    if args.nodes and args.platform != "dist":
        parser.error("--nodes is only meaningful with --platform dist")
    if args.cluster and args.platform != "dist":
        parser.error("--cluster is only meaningful with --platform dist")
    if args.topology != "mesh" and args.platform != "dist":
        parser.error("--topology is only meaningful with --platform dist")
    try:
        # DirectoryCapacityError (a ValueError) surfaces the two-level
        # directory limits — 64 nodes x 64 cores — in the CLI error.
        platform = platform_from_name(
            args.platform,
            nodes=args.nodes or 2,
            topology=args.topology,
            cluster=args.cluster,
        )
    except ValueError as exc:
        parser.error(str(exc))
    size = problem_sizes(args.benchmark, platform.target)[args.size]

    if args.check_deps or args.check_races:
        from repro.apps import get_benchmark
        from repro.check import audit

        unroll = args.unroll if isinstance(args.unroll, int) else 0
        return audit(
            lambda: get_benchmark(args.benchmark).build(size, unroll=unroll or 1),
            f"{args.benchmark} ({size})",
            args.check_deps,
            args.check_races,
        )

    if args.unroll == "auto":
        unrolls: tuple[int, ...] | str = "auto"
    elif args.unroll:
        unrolls = (args.unroll,)
    else:
        unrolls = UNROLL_LADDER

    if args.sweep and args.platform == "dist":
        # On dist the interesting axis is node count, not kernels within
        # one node: one TFluxDist per rung, each at its own kernel max
        # (or the explicit --kernels, where it fits every rung).
        max_nodes = min(MAX_NODES, MAX_CORES // platform.node_machine.ncores)
        platforms = [
            TFluxDist(
                nnodes=n,
                net=platform.net,
                topology=platform.topology,
                cluster_size=platform.cluster_size,
            )
            for n in _ladder(max_nodes, rungs=(1, 2, 4, 8))
        ]
        cells = [(f"nodes={p.nnodes:<2d} ", p, args.kernels or p.max_kernels)
                 for p in platforms]
    elif args.sweep:
        cells = [("", platform, nk) for nk in _ladder(platform.max_kernels)]
    else:
        cells = [("", platform, args.kernels or platform.max_kernels)]

    print(f"{args.benchmark.upper()} ({size}) on {platform.name}")
    requests = [
        EvalRequest(
            platform=p,
            bench=args.benchmark,
            size=size,
            nkernels=nk,
            unrolls=unrolls,
        )
        for _, p, nk in cells
    ]
    try:
        evaluations = evaluate_many(requests)
        for (label, _, _), ev in zip(cells, evaluations):
            print(f"  {label}{ev.row()}")
        if args.trace_out:
            _write_trace(args.trace_out, cells[0][1], args.benchmark, size,
                         evaluations[0])
        if args.check_native:
            _check_native(args.benchmark, size, evaluations[0])
    except (ValueError, MemoryError) as exc:
        import sys

        print(f"tflux-run: error: {exc}", file=sys.stderr)
        return 2
    return 0


def _write_trace(path: str, platform, bench_name: str, size, evaluation) -> None:
    """Re-run the first evaluated cell at its best unroll with a
    collecting probe and export the timeline as Chrome-trace JSON."""
    from repro.apps import get_benchmark
    from repro.obs import Tracer, write_chrome_trace

    prog = get_benchmark(bench_name).build(size, unroll=evaluation.best_unroll)
    tracer = Tracer()
    platform.execute(prog, nkernels=evaluation.nkernels, tracer=tracer)
    write_chrome_trace(path, tracer)
    print(
        f"trace: {len(tracer.spans)} spans -> {path} "
        "(load in Perfetto or chrome://tracing)"
    )


def _check_native(bench_name: str, size, evaluation) -> None:
    """Cross-backend functional check: run the first evaluated cell's
    program (fresh build — programs are single-run) on the OS-thread
    runtime and verify the benchmark's output."""
    from repro.apps import get_benchmark
    from repro.runtime.native import NativeRuntime

    bench = get_benchmark(bench_name)
    prog = bench.build(size, unroll=evaluation.best_unroll)
    nkernels = min(evaluation.nkernels, os.cpu_count() or 1)
    result = NativeRuntime(prog, nkernels=nkernels).run()
    bench.verify(result.env, size)
    print(
        f"native check: {result.total_dthreads} dthreads on "
        f"{nkernels} kernels in {result.wall_seconds:.3f}s — output verified"
    )


if __name__ == "__main__":
    raise SystemExit(main())
