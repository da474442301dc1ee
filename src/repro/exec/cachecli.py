"""``tflux-cache`` — inspect and prune the on-disk result cache.

Examples::

    tflux-cache stats                      # the TFLUX_CACHE_DIR tree
    tflux-cache stats --dir /tmp/cache --json
    tflux-cache prune --max-mb 512         # size-bound, oldest evicted first
    tflux-cache prune --max-age-days 30    # drop entries older than 30 days

Also runnable uninstalled: ``python -m repro.exec.cachecli ...``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.exec.cache import ENV_CACHE_DIR, ResultCache

__all__ = ["main"]


def _cache(args: argparse.Namespace) -> Optional[ResultCache]:
    root = args.dir or os.environ.get(ENV_CACHE_DIR, "").strip()
    if not root:
        print(
            f"tflux-cache: error: no cache directory (set {ENV_CACHE_DIR} "
            f"or pass --dir)",
            file=sys.stderr,
        )
        return None
    return ResultCache(os.path.expanduser(root))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tflux-cache",
        description="Inspect / prune the TFlux on-disk result cache",
    )
    parser.add_argument("--dir", default=None,
                        help=f"cache directory (default: ${ENV_CACHE_DIR})")
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="entry count and on-disk bytes")
    stats.add_argument("--json", action="store_true")

    prune = sub.add_parser("prune", help="evict by size and/or age")
    prune.add_argument("--max-mb", type=float, default=None,
                       help="size bound in MiB")
    prune.add_argument("--max-age-days", type=float, default=None,
                       help="maximum entry age in days")
    prune.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    cache = _cache(args)
    if cache is None:
        return 2

    if args.command == "stats":
        info = cache.stats()
        del info["hits"], info["misses"], info["stores"]  # fresh handle: all 0
        if args.json:
            print(json.dumps(info, indent=1, sort_keys=True))
        else:
            print(f"{info['root']}: {info['entries']} entries, "
                  f"{info['bytes'] / 1e6:.1f} MB")
        return 0

    if args.max_mb is None and args.max_age_days is None:
        print("tflux-cache: error: prune needs --max-mb and/or "
              "--max-age-days", file=sys.stderr)
        return 2
    report = cache.prune(
        max_bytes=None if args.max_mb is None else int(args.max_mb * 1024 * 1024),
        max_age=None if args.max_age_days is None else args.max_age_days * 86400.0,
    )
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(f"pruned {report['removed']} entries "
              f"({report['freed_bytes'] / 1e6:.1f} MB); "
              f"{report['remaining']} remain "
              f"({report['remaining_bytes'] / 1e6:.1f} MB)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
