"""P1 — DES kernel hot-path microbenchmark.

Every cycle number in the harness flows through ``repro.sim.engine``, so
its dispatch loop, timer resume, and ``Resource`` grant/release paths are
the harness's hottest code.  This microbenchmark drives the kernel with a
contended-resource workload shaped like the bus arbiter / TSU command
port under load: many processes queueing on a small-capacity resource
with short timer yields in between.

Besides the throughput report, the scaling test guards the complexity of
the grant queue: ``Resource.release`` once used ``list.pop(0)``, which
made the contended case O(queue) per release — quadratic overall — and
this is exactly the workload where it showed.
"""

import time
from contextlib import nullcontext

import pytest

from benchmarks.conftest import report
from repro.sim.engine import Engine, eager_protocol


def _contended_run(nprocs: int, rounds: int) -> int:
    """Run the workload; returns the number of callbacks dispatched."""
    eng = Engine()
    bus = eng.resource(capacity=2, name="bus")

    def worker(eng, bus, rounds):
        for _ in range(rounds):
            grant = bus.request()
            if not grant.triggered:
                yield grant
            yield 3
            bus.release()
            yield 1

    for i in range(nprocs):
        eng.process(worker(eng, bus, rounds), name=f"w{i}")
    eng.run()
    return eng.events_executed


def _best_seconds(nprocs: int, rounds: int, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _contended_run(nprocs, rounds)
        best = min(best, time.perf_counter() - t0)
    return best


def test_hotpath_throughput_table():
    lines = [
        "P1 — DES kernel throughput, contended-resource workload",
        f"{'procs':>6} {'rounds':>7} {'events':>9} {'best time':>10} {'events/s':>11}",
    ]
    for nprocs, rounds in ((8, 2_000), (64, 500), (256, 125)):
        events = _contended_run(nprocs, rounds)
        secs = _best_seconds(nprocs, rounds, repeats=1)
        lines.append(
            f"{nprocs:>6} {rounds:>7} {events:>9,} {secs:>9.3f}s "
            f"{events / secs:>11,.0f}"
        )
    report("\n".join(lines))


def test_event_count_scales_linearly():
    """The workload itself is linear: dispatch counts must scale with
    work, independent of timing noise."""
    base = _contended_run(64, 200)
    double = _contended_run(128, 200)
    assert base > 0
    assert double == pytest.approx(2 * base, rel=0.02)


def test_contended_queue_is_not_quadratic():
    """Doubling the waiter count at constant total work must not blow up
    run time.  With the O(n) ``list.pop(0)`` grant queue this ratio was
    super-linear in the queue depth; the deque keeps it flat (3x bound
    leaves headroom for timing noise on loaded hosts)."""
    base = _best_seconds(64, 400)
    deep = _best_seconds(256, 100)  # 4x the queue depth, same total ops
    assert deep < max(base, 1e-3) * 3, (
        f"deep-queue run {deep:.3f}s vs {base:.3f}s — release looks O(queue)"
    )


def test_engine_hotpath_benchmark(benchmark):
    result = benchmark.pedantic(
        lambda: _contended_run(64, 500), rounds=1, iterations=1
    )
    assert result > 0


# -- the protocol fast path on a real program ----------------------------------
def _protocol_run(nkernels: int, fast: bool):
    """TRAPEZ on TFluxHard with the DES fast path forced on/off; returns
    (events dispatched, DThread instances, total cycles)."""
    from repro.apps import get_benchmark, problem_sizes
    from repro.platforms import TFluxHard

    bench = get_benchmark("trapez")
    size = problem_sizes("trapez", "S")["small"]
    prog = bench.build(size, unroll=8, max_threads=1024)
    with nullcontext() if fast else eager_protocol():
        result = TFluxHard().execute(prog, nkernels=nkernels)
    return (
        result.counters["engine.events"],
        result.total_dthreads,
        result.cycles,
    )


def test_fastpath_event_reduction_table():
    lines = [
        "P1 — protocol fast path: dispatched events per DThread instance",
        f"{'kernels':>8} {'ev/inst off':>12} {'ev/inst on':>11} {'ratio':>6}",
    ]
    for nkernels in (1, 4):
        ev_on, n, _ = _protocol_run(nkernels, fast=True)
        ev_off, _, _ = _protocol_run(nkernels, fast=False)
        lines.append(
            f"{nkernels:>8} {ev_off / n:>12.2f} {ev_on / n:>11.2f} "
            f"{ev_off / ev_on:>6.2f}"
        )
    report("\n".join(lines))


def test_fastpath_halves_uncontended_events():
    """The tentpole claim: an uncontended protocol run (the single-kernel
    shape every sequential baseline and every sweep's serial side takes)
    dispatches at least 2x fewer engine events with coalescing on — at
    bit-identical cycle counts."""
    ev_on, instances, cycles_on = _protocol_run(1, fast=True)
    ev_off, _, cycles_off = _protocol_run(1, fast=False)
    assert cycles_on == cycles_off
    assert instances > 0
    assert ev_off >= 2 * ev_on, (
        f"fast path saves only {ev_off / ev_on:.2f}x "
        f"({ev_off}/{instances} -> {ev_on}/{instances} events/instance)"
    )


def test_fastpath_helps_contended_runs_too():
    """Contention disengages the fast path per-op, never adds events."""
    ev_on, _, cycles_on = _protocol_run(4, fast=True)
    ev_off, _, cycles_off = _protocol_run(4, fast=False)
    assert cycles_on == cycles_off
    assert ev_on < ev_off
