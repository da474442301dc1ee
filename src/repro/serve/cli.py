"""``tflux-serve`` / ``tflux-submit`` — the serving layer's CLIs.

Examples::

    tflux-serve --port 7077 --workers auto --cache-dir ~/.cache/tflux
    tflux-serve --unix /tmp/tflux.sock --workers 4

    tflux-submit trapez --connect 127.0.0.1:7077 --kernels 2,4,8 --unroll 2,8
    tflux-submit mmult --unix /tmp/tflux.sock --tenant alice --size small \
        --count 3 --stats --json results.json

Both are also runnable uninstalled::

    python -m repro.serve.cli serve --port 0
    python -m repro.serve.cli submit trapez --connect HOST:PORT

``tflux-serve`` prints ``listening on HOST:PORT`` (or the socket path)
once bound — scripts wait for that line.  ``tflux-submit`` prints one
row per streamed result in arrival order, a summary, and optionally the
server's counter snapshot.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Any, Optional

__all__ = ["main", "main_serve", "main_submit"]


def _address(args: argparse.Namespace) -> "tuple[str, int] | str":
    if args.unix:
        return args.unix
    host, _, port = args.connect.rpartition(":")
    return (host or "127.0.0.1", int(port))


def main_serve(argv: Optional[list[str]] = None) -> int:
    from repro.exec import ENV_CACHE_DIR, job_count
    from repro.serve.server import LRU_CAPACITY, ServeConfig, TFluxServer

    parser = argparse.ArgumentParser(
        prog="tflux-serve",
        description="Run the multi-tenant TFlux simulation server",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7077, help="0 = any free port")
    parser.add_argument("--unix", default=None, metavar="PATH",
                        help="listen on a Unix socket instead of TCP")
    parser.add_argument("--workers", type=job_count, default=ServeConfig().workers,
                        help="worker processes ('auto' = all cores)")
    parser.add_argument("--cache-dir", default=None,
                        help=f"on-disk result cache (overrides {ENV_CACHE_DIR})")
    args = parser.parse_args(argv)

    if args.cache_dir is not None:
        os.environ[ENV_CACHE_DIR] = os.path.expanduser(args.cache_dir)
    config = ServeConfig(workers=args.workers)

    async def _run() -> None:
        # SIGTERM takes the Ctrl-C path: cancel this task so ``aclose``
        # runs and the forked pool workers are released, not orphaned.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        server = TFluxServer(config=config)
        await server.start(host=args.host, port=args.port, unix=args.unix)
        where = args.unix if args.unix else "%s:%d" % server.address[:2]
        print(f"tflux-serve: listening on {where} "
              f"(workers={config.workers}, lru={LRU_CAPACITY}, "
              f"inflight={2 * config.workers})", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(_run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("tflux-serve: bye")
    return 0


def main_submit(argv: Optional[list[str]] = None) -> int:
    from repro.apps.common import SIZE_LABELS
    from repro.platforms import PLATFORMS
    from repro.serve.client import ServeClient
    from repro.serve.protocol import job_to_wire

    parser = argparse.ArgumentParser(
        prog="tflux-submit",
        description="Submit a job batch to a running tflux-serve",
    )
    parser.add_argument("benchmark")
    parser.add_argument("--connect", default="127.0.0.1:7077", metavar="HOST:PORT")
    parser.add_argument("--unix", default=None, metavar="PATH")
    parser.add_argument("--tenant", default="")
    parser.add_argument("--platform", default="hard", choices=tuple(PLATFORMS))
    parser.add_argument("--size", default="small", choices=SIZE_LABELS)
    parser.add_argument("--kernels", default="0",
                        help="comma-separated kernel counts (0 = platform max)")
    parser.add_argument("--unroll", default="1",
                        help="comma-separated unroll factors")
    parser.add_argument("--count", type=int, default=1,
                        help="repeat the grid N times (dedup/LRU exercise)")
    parser.add_argument("--priority", type=int, default=0)
    parser.add_argument("--verify", action="store_true",
                        help="functionally verify each run against the oracle")
    parser.add_argument("--stats", action="store_true",
                        help="print the server's counter snapshot afterwards")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="dump streamed outcomes (wire form) to FILE")
    args = parser.parse_args(argv)

    try:
        kernel_counts = [int(k) for k in args.kernels.split(",")]
        unrolls = [int(u) for u in args.unroll.split(",")]
    except ValueError:
        print("tflux-submit: error: --kernels/--unroll take comma-separated "
              "integers", file=sys.stderr)
        return 2
    jobs = [
        job_to_wire(
            args.benchmark,
            platform=args.platform,
            size=args.size,
            nkernels=nk,
            unroll=u,
            verify=args.verify,
        )
        for _ in range(args.count)
        for nk in kernel_counts
        for u in unrolls
    ]

    try:
        client = ServeClient(_address(args), tenant=args.tenant)
    except (OSError, ConnectionError) as exc:
        print(f"tflux-submit: error: cannot connect: {exc}", file=sys.stderr)
        return 2
    with client:
        arrival: list[int] = []

        def _on_result(index: int, outcome: Any) -> None:
            arrival.append(index)
            label = jobs[index]
            print(f"  [{len(arrival):>3d}/{len(jobs)}] job {index}: "
                  f"nk={label.get('nkernels', 0)} unroll={label.get('unroll', 1)} "
                  f"cycles={outcome.cycles:,d}")

        batch = client.submit(jobs, priority=args.priority, on_result=_on_result)
        if batch.status == "overloaded":
            print(f"tflux-submit: server overloaded ({batch.message}); retry later",
                  file=sys.stderr)
            return 3
        if batch.status == "error":
            print(f"tflux-submit: rejected: {batch.message}", file=sys.stderr)
            return 2
        for index, error in sorted(batch.errors.items()):
            print(f"tflux-submit: job {index} failed: {error[0]}: {error[1]}",
                  file=sys.stderr)
        print(f"{args.benchmark.upper()}: {len(jobs) - len(batch.errors)}/"
              f"{len(jobs)} jobs resolved (batch {batch.batch_id})")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(
                    {"batch_id": batch.batch_id, "jobs": jobs,
                     "outcomes": [batch.wire.get(i) for i in range(len(jobs))]},
                    fh, indent=1, sort_keys=True,
                )
            print(f"wrote {args.json}")
        if args.stats:
            stats = client.stats()
            for name, value in sorted(stats["counters"].items()):
                print(f"  {name} = {value}")
        return 1 if batch.errors else 0


def main() -> int:
    """``python -m repro.serve.cli {serve,submit} ...`` dispatcher."""
    argv = sys.argv[1:]
    if not argv or argv[0] not in ("serve", "submit"):
        print("usage: python -m repro.serve.cli {serve,submit} [options]",
              file=sys.stderr)
        return 2
    return (main_serve if argv[0] == "serve" else main_submit)(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
