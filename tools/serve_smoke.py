#!/usr/bin/env python
"""CI smoke for the serving layer: a real server process, two clients.

Launches ``python -m repro.serve.cli serve`` as a subprocess, waits for
its ``listening on HOST:PORT`` line, then drives it the way CI can
verify end to end:

1. two clients submit overlapping batches concurrently (same grid);
2. the dedup machinery must fire: ``serve.executed`` equals the unique
   spec count and ``serve.deduped + serve.lru_hits`` covers every
   duplicate;
3. the streamed records must be bit-identical across the two clients,
   and each was encoded once: ``serve.encoded == serve.executed +
   exec.cache.hits``;
4. ``tflux-submit`` (the CLI path) runs against the same server and its
   ``--json`` dump round-trips;
5. a job that can never run (``--unroll 0``) is refused at admission:
   ``tflux-submit`` exits 2 with ``rejected:`` and nothing is executed;
6. SIGTERM shuts the server down cleanly, with a client still
   connected: exit 0 and no forked pool worker outlives it.

Exits non-zero on any violation.  Usage::

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve import ServeClient, job_to_wire  # noqa: E402

GRID = [
    job_to_wire("trapez", nkernels=2, unroll=1, max_threads=64 + i)
    for i in range(4)
]


def _children(pid: int) -> list[int]:
    out = subprocess.run(
        ["ps", "-o", "pid=", "--ppid", str(pid)], capture_output=True, text=True
    ).stdout
    return [int(p) for p in out.split()]


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def listening(server: subprocess.Popen) -> "tuple[str, int] | None":
    line = server.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", line)
    if not match:
        print(f"serve-smoke: FAIL: no listen line, got {line!r}")
        return None
    address = (match.group(1), int(match.group(2)))
    print(f"serve-smoke: server up at {address[0]}:{address[1]}")
    return address


def drive(address: tuple[str, int]) -> int:

    # -- overlapping batches from two tenants --------------------------
    batches: dict[str, object] = {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(2)

    def tenant(name: str) -> None:
        try:
            with ServeClient(address, tenant=name) as client:
                barrier.wait()  # maximise batch overlap
                batches[name] = client.submit(GRID)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=tenant, args=(n,)) for n in ("alice", "bob")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        print(f"serve-smoke: FAIL: client error: {errors[0]}")
        return 1
    alice, bob = batches["alice"], batches["bob"]
    if not (alice.ok and bob.ok):
        print("serve-smoke: FAIL: batch did not resolve")
        return 1

    for i in range(len(GRID)):
        a = json.dumps(alice.wire[i], sort_keys=True)
        b = json.dumps(bob.wire[i], sort_keys=True)
        if a != b:
            print(f"serve-smoke: FAIL: job {i} records differ across clients")
            return 1
    print(f"serve-smoke: {len(GRID)} records bit-identical across clients")

    with ServeClient(address) as client:
        stats = client.stats()
    counters = stats["counters"]
    total, unique = 2 * len(GRID), len(GRID)
    duplicates = (
        counters.get("serve.deduped", 0) + counters.get("serve.lru_hits", 0)
    )
    if stats["executed"] != unique:
        print(f"serve-smoke: FAIL: {stats['executed']} simulations for "
              f"{unique} unique specs")
        return 1
    if duplicates != total - unique:
        print(f"serve-smoke: FAIL: dedup did not fire "
              f"(deduped+lru_hits={duplicates}, expected {total - unique})")
        return 1
    print(f"serve-smoke: dedup fired: {stats['executed']} simulations, "
          f"{duplicates} duplicates coalesced/LRU-served")
    encoded = counters.get("serve.encoded", 0)
    resolved = counters.get("serve.executed", 0) + counters.get("exec.cache.hits", 0)
    if encoded != resolved:
        print(f"serve-smoke: FAIL: {encoded} outcomes encoded for {resolved} "
              f"resolved flights (serve.executed + exec.cache.hits)")
        return 1
    print(f"serve-smoke: one encode per digest: serve.encoded={encoded}, "
          f"{counters.get('serve.writes', 0)} writes for {total} results")

    # -- the CLI client path -------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "submit.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve.cli", "submit", "trapez",
             "--connect", f"{address[0]}:{address[1]}",
             "--kernels", "2", "--unroll", "1,2", "--tenant", "cli",
             "--priority", "1", "--stats", "--json", str(dump)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if proc.returncode != 0:
            print(f"serve-smoke: FAIL: tflux-submit rc={proc.returncode}\n"
                  f"{proc.stdout}\n{proc.stderr}")
            return 1
        payload = json.loads(dump.read_text())
        if len(payload["outcomes"]) != 2 or any(
            o is None or "cycles" not in o for o in payload["outcomes"]
        ):
            print("serve-smoke: FAIL: tflux-submit --json dump malformed")
            return 1
    print("serve-smoke: tflux-submit OK")

    # -- admission refuses what can never run --------------------------
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve.cli", "submit", "trapez",
         "--connect", f"{address[0]}:{address[1]}", "--unroll", "0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 2 or "rejected:" not in proc.stderr:
        print(f"serve-smoke: FAIL: unroll=0 was not refused at admission "
              f"(rc={proc.returncode})\n{proc.stdout}\n{proc.stderr}")
        return 1
    print(f"serve-smoke: impossible job refused: {proc.stderr.strip()}")
    return 0


def stop(server: subprocess.Popen, address: tuple[str, int]) -> int:
    """SIGTERM must take the Ctrl-C path: exit 0, no pool worker left,
    and no wait on a client that is still connected."""
    children = _children(server.pid)
    with ServeClient(address, tenant="idle") as idle:
        idle.stats()  # the server has registered the connection
        server.terminate()
        try:
            rc = server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            print("serve-smoke: FAIL: server ignored SIGTERM for 10 s")
            return 1
    if rc != 0:
        print(f"serve-smoke: FAIL: server exited {rc} on SIGTERM")
        return 1
    time.sleep(1)
    orphans = [pid for pid in children if _alive(pid)]
    if orphans:
        print(f"serve-smoke: FAIL: SIGTERM orphaned worker pids {orphans}")
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        return 1
    print(f"serve-smoke: SIGTERM: exit 0, {len(children)} worker(s) gone")
    return 0


def main() -> int:
    env = dict(os.environ, TFLUX_CACHE_DIR="")  # disk cache off: exact counts
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli", "serve", "--port", "0",
         "--workers", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        address = listening(server)
        rc = 1 if address is None else drive(address) or stop(server, address)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    if rc == 0:
        print("serve-smoke: PASS")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
