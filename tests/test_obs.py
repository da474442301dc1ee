"""repro.obs: the unified counter registry and probe/span protocol.

The contract under test: every backend (simulated hard/soft/cell, native
threads, sequential baseline) publishes its accounting into one typed
:class:`Counters` registry and emits spans through one :class:`Probe`
interface, and the resulting telemetry survives the exporters and the
exec pool/cache boundary intact.
"""

import json
import pickle

import pytest

from repro.apps import problem_sizes
from repro.core import ProgramBuilder
from repro.obs import (
    NULL_PROBE,
    Counters,
    Span,
    Tracer,
    check_no_overlap,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.platforms import TFluxCell, TFluxHard, TFluxSoft
from repro.runtime.native import NativeRuntime
from repro.tsu.policy import round_robin_placement


def _sum_program(nchunks=16):
    b = ProgramBuilder("psum")
    b.env.alloc("parts", nchunks)

    def work(env, i):
        env.array("parts")[i] = (i + 1) ** 2

    def total(env, _):
        env.set("total", float(env.array("parts").sum()))

    t1 = b.thread("work", body=work, contexts=nchunks)
    t2 = b.thread("total", body=total)
    b.depends(t1, t2, "all")
    return b.build()


# -- the counter registry ------------------------------------------------------
class TestCounters:
    def test_basic_increment_and_read(self):
        c = Counters()
        c.inc("tsu.fetches")
        c.inc("tsu.fetches", 4)
        assert c["tsu.fetches"] == 5
        assert c.get("tsu.waits") == 0
        assert "tsu.fetches" in c and "tsu.waits" not in c
        with pytest.raises(KeyError):
            c["tsu.waits"]

    def test_name_validation(self):
        c = Counters()
        for bad in ("", "a..b", "a b", "1x.y", "tsu."):
            with pytest.raises((TypeError, ValueError)):
                c.inc(bad)
        with pytest.raises(TypeError):
            c.inc(None)

    def test_value_validation(self):
        c = Counters()
        with pytest.raises(TypeError):
            c.inc("x", True)  # bool counts are always a bug
        with pytest.raises(TypeError):
            c.inc("x", 1.5)

    def test_scopes_nest(self):
        c = Counters()
        tsu = c.scope("tsu")
        tsu.inc("fetches", 3)
        tsu.scope("port").inc("stalls", 2)
        assert c["tsu.fetches"] == 3
        assert c["tsu.port.stalls"] == 2

    def test_merge_sums_by_name(self):
        a = Counters({"tsu.fetches": 2, "tub.pushes": 1})
        b = Counters({"tsu.fetches": 3, "mmi.queries": 7})
        a.merge(b)
        assert a == {"tsu.fetches": 5, "tub.pushes": 1, "mmi.queries": 7}
        a.merge({"tub.pushes": 9})
        assert a["tub.pushes"] == 10

    def test_items_sorted_and_as_dict(self):
        c = Counters({"b.y": 2, "a.x": 1})
        assert c.items() == [("a.x", 1), ("b.y", 2)]
        assert list(c) == ["a.x", "b.y"]
        assert c.as_dict() == {"a.x": 1, "b.y": 2}

    def test_equality_with_counters_and_dict(self):
        assert Counters({"a.b": 1}) == Counters({"a.b": 1})
        assert Counters({"a.b": 1}) == {"a.b": 1}
        assert Counters({"a.b": 1}) != {"a.b": 2}

    def test_pickle_round_trip(self):
        c = Counters({"tsu.fetches": 42, "dma.bytes_imported": 1 << 40})
        assert pickle.loads(pickle.dumps(c)) == c


# -- the probe protocol --------------------------------------------------------
def test_null_probe_discards():
    NULL_PROBE.record(0, "t", "thread", 0, 10)
    assert NULL_PROBE.spans == []


def test_check_no_overlap_catches_overlap():
    good = [Span(0, "a", "thread", 0, 5), Span(0, "b", "thread", 5, 9)]
    check_no_overlap(good)
    bad = good + [Span(0, "c", "thread", 4, 6)]
    with pytest.raises(AssertionError):
        check_no_overlap(bad)
    # Overlap on *different* kernels is fine (that's parallelism).
    check_no_overlap([Span(0, "a", "thread", 0, 5), Span(1, "b", "thread", 0, 5)])


# -- every platform emits through the shared probe -----------------------------
@pytest.mark.parametrize("platform_cls", [TFluxHard, TFluxSoft, TFluxCell])
def test_simulated_platforms_emit_disjoint_spans(platform_cls):
    platform = platform_cls()
    tracer = Tracer()
    result = platform.execute(_sum_program(16), nkernels=4, tracer=tracer)
    assert result.env.get("total") == sum((i + 1) ** 2 for i in range(16))
    assert result.spans == tracer.spans
    kinds = {s.kind for s in tracer.spans}
    assert "thread" in kinds and "inlet" in kinds and "outlet" in kinds
    assert sum(s.kind == "thread" for s in tracer.spans) == 17
    tracer.check_no_overlap()


def test_native_runtime_emits_disjoint_spans():
    tracer = Tracer()
    res = NativeRuntime(_sum_program(16), nkernels=3, tracer=tracer).run()
    assert res.env.get("total") == sum((i + 1) ** 2 for i in range(16))
    assert sum(s.kind == "thread" for s in tracer.spans) == 17
    tracer.check_no_overlap()  # a kernel runs one DThread at a time


def test_sequential_baseline_emits_spans_on_kernel_zero():
    platform = TFluxHard()
    size = problem_sizes("trapez", "S")["small"]
    from repro.apps import get_benchmark

    prog = get_benchmark("trapez").build(size, unroll=8, max_threads=256)
    tracer = Tracer()
    seq = platform.sequential_baseline(prog, tracer=tracer)
    assert tracer.spans and all(s.kernel == 0 for s in tracer.spans)
    tracer.check_no_overlap()
    # The baseline timeline is gap-free: total span time == total cycles.
    assert tracer.busy_cycles(0) == seq.cycles


def test_spans_reconcile_with_core_stats():
    """Per kernel: thread spans cover compute+memory (plus some runtime),
    and never more than the core's total busy time."""
    platform = TFluxHard()
    tracer = Tracer()
    result = platform.execute(_sum_program(24), nkernels=4, tracer=tracer)
    for k in result.kernels:
        core = k.core
        spanned = tracer.busy_cycles(k.kernel_id)
        assert core.compute_cycles + core.memory_cycles <= spanned
        assert spanned <= core.compute_cycles + core.memory_cycles + core.runtime_cycles


def test_execute_accepts_placement_policy():
    tracer = Tracer()
    result = TFluxHard().execute(
        _sum_program(12),
        nkernels=4,
        placement=round_robin_placement,
        tracer=tracer,
    )
    assert result.env.get("total") == sum((i + 1) ** 2 for i in range(12))
    # Round-robin spreads the 12 workers over all four kernels.
    assert {s.kernel for s in tracer.spans if s.kind == "thread"} == {0, 1, 2, 3}


def test_adapters_expose_no_freeform_stats():
    """The duck-typed ``extra_stats`` escape hatch is gone: every adapter
    reports through publish_counters only."""
    from repro.cell.adapter import CellTSUAdapter
    from repro.tsu.base import ProtocolAdapter
    from repro.tsu.hardware import HardwareTSUAdapter
    from repro.tsu.multigroup import MultiGroupHardwareAdapter
    from repro.tsu.software import SoftwareTSUAdapter

    for cls in (
        ProtocolAdapter,
        HardwareTSUAdapter,
        SoftwareTSUAdapter,
        MultiGroupHardwareAdapter,
        CellTSUAdapter,
    ):
        assert not hasattr(cls, "extra_stats")
        assert hasattr(cls, "publish_counters")


# -- exporters -----------------------------------------------------------------
def test_chrome_trace_structure(tmp_path):
    tracer = Tracer()
    TFluxHard().execute(_sum_program(8), nkernels=2, tracer=tracer)
    doc = to_chrome_trace(tracer)
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(xs) == len(tracer.spans)
    assert {m["tid"] for m in metas} == {s.kernel for s in tracer.spans}
    for e in xs:
        assert e["dur"] >= 0 and e["cat"] in ("thread", "inlet", "outlet")

    out = tmp_path / "trace.json"
    write_chrome_trace(out, tracer)
    assert json.loads(out.read_text())["traceEvents"]


# -- telemetry across the exec pool/cache boundary ------------------------------
def _job_spec(**overrides):
    from repro.exec import JobSpec

    base = dict(
        platform=TFluxHard(),
        bench="trapez",
        size=problem_sizes("trapez", "S")["small"],
        nkernels=4,
        unroll=8,
        max_threads=256,
        mode="execute",
    )
    base.update(overrides)
    return JobSpec(**base)


def test_spans_off_by_default():
    from repro.exec import run_job

    outcome = run_job(_job_spec())
    assert outcome.result.spans == []
    assert outcome.result.counters["tsu.fetches"] > 0


def test_baseline_receives_exact_memory(monkeypatch):
    """``sequential_baseline`` must forward *exact_memory* — the seed bug
    priced every baseline with the fast cache model regardless."""
    import repro.runtime.simdriver as simdriver

    seen = {}
    real = simdriver.price_sequential

    def spy(trace, machine, exact_memory, tracer):
        seen["exact_memory"] = exact_memory
        return real(trace, machine, exact_memory, tracer)

    monkeypatch.setattr(simdriver, "price_sequential", spy)
    from repro.apps import get_benchmark

    size = problem_sizes("trapez", "S")["small"]
    prog = get_benchmark("trapez").build(size, unroll=8, max_threads=256)
    TFluxHard().sequential_baseline(prog, exact_memory=True)
    assert seen["exact_memory"] is True


def test_run_job_forwards_exact_memory_to_baseline(monkeypatch):
    import repro.runtime.simdriver as simdriver
    from repro.exec import run_job

    calls = []
    real = simdriver.price_sequential

    def spy(trace, machine, exact_memory, tracer):
        calls.append(exact_memory)
        return real(trace, machine, exact_memory, tracer)

    monkeypatch.setattr(simdriver, "price_sequential", spy)
    run_job(_job_spec(mode="sequential", exact_memory=True))
    assert calls == [True]


# -- CLI -----------------------------------------------------------------------
def test_cli_trace_out_writes_chrome_json(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("TFLUX_JOBS", raising=False)
    monkeypatch.delenv("TFLUX_CACHE_DIR", raising=False)
    from repro.cli import main

    out = tmp_path / "trace.json"
    rc = main(
        ["trapez", "--platform", "hard", "--kernels", "4",
         "--unroll", "8", "--trace-out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
    assert "trace:" in capsys.readouterr().out
