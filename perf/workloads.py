"""The four benchmark workloads and the seeded input generators.

Every workload builds a *fixed operation list* from ``(seed, quick)`` and
replays it once per :meth:`repetition`.  ``repro`` only ever receives the
generated inputs and is driven through public functions alone.  A
repetition reports through a :class:`perf.trace.Recorder`:

* ``rec.op(id)`` times one op and fails it on an exception or when its
  fingerprint (the op's deterministic results) differs from the first
  one recorded for that id;
* in a traced repetition (``rec.traced``) the sweeps do by hand, through
  the same public calls, what ``run_job`` / ``evaluate_many`` do inside,
  with a span around each call, and add the *peels*: one layer run on
  its own on a fresh build (programs are single-run objects).

Why each workload exists is recorded in ``BENCHMARK.json`` and, at
length, in ``perf/README.md``.
"""

from __future__ import annotations

import itertools
import pickle
import random
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro.analysis.calibration import PAPER
from repro.apps import BENCHMARKS, get_benchmark, problem_sizes
from repro.check import run_checked
from repro.core.deps import check_deps
from repro.exec import (
    EvalRequest,
    JobOutcome,
    JobSpec,
    ResultCache,
    clear_baseline_memo,
    evaluate_many,
    run_job,
    spec_digest,
)
from repro.platforms import TFluxCell, TFluxDist, TFluxHard, TFluxSoft
from repro.preprocessor import compile_to_program, emit_module
from repro.runtime import SimulatedRuntime
from repro.serve import (
    ServeClient,
    ServeConfig,
    job_from_wire,
    job_to_wire,
    outcome_from_wire,
    outcome_to_wire,
    serve_in_thread,
)
from repro.serve.protocol import decode, encode
from repro.sim.machine import BAGLE_27
from repro.tsu.multigroup import MultiGroupHardwareAdapter

from perf.trace import Recorder

__all__ = ["WORKLOADS", "synthetic_ddm"]


# -- counting ----------------------------------------------------------------------

#: per-layer count name <- RunRecord counter name
_COUNTER_MAP = {
    "sim.engine.events": "engine.events",
    "sim.engine.scheduled": "engine.scheduled",
    "tsu.dispatched": "tsu.dispatched",
    "tsu.fetches": "tsu.fetches",
    "tsu.waits": "tsu.waits",
    "tsu.post_updates": "tsu.post_updates",
    "tsu.steals": "tsu.steals",
    "tsu.spawns": "tsu.spawns",
    "tsu.mmi.commands": "mmi.commands",
    "tsu.mmi.queries": "mmi.queries",
    "tsu.tub.pushes": "tub.pushes",
    "tsu.emulator.items": "emulator.items",
    "tsu.emulator.busy_cycles": "emulator.busy_cycles",
    "net.messages": "net.messages",
    "net.hops": "net.hops",
    "net.bytes_forwarded": "net.bytes_forwarded",
    "net.remote_updates": "net.remote_updates",
    "cell.dma.imports": "dma.imports",
    "cell.dma.exports": "dma.exports",
    "cell.ppe.commands": "ppe.commands",
    "cell.ppe.polls": "ppe.polls",
}


def _count_record(rec: Recorder, record) -> None:
    """Add one parallel run's RunRecord to the repetition's exact counts."""
    counters = record.counters.as_dict()
    for name, source in _COUNTER_MAP.items():
        rec.count(name, counters.get(source, 0))
    rec.count(
        "sim.engine.coalesced",
        sum(v for k, v in counters.items() if k.startswith("engine.coalesced_")),
    )
    rec.count(
        "cell.dma.bytes",
        counters.get("dma.bytes_imported", 0) + counters.get("dma.bytes_exported", 0),
    )
    memory = record.memory
    if memory is not None:
        rec.count("sim.memory.accesses", memory.accesses)
        rec.count("sim.memory.l1_hits", memory.l1_hits)
        rec.count("sim.memory.mem_misses", memory.mem_misses)
        rec.count("sim.memory.coherence_misses", memory.coherence_misses)
        rec.count("sim.memory.stall_cycles", memory.cycles)
    rec.count("sim.cycles_total", record.cycles)


# -- one simulation, by hand ---------------------------------------------------------

def _build(spec: JobSpec):
    return get_benchmark(spec.bench).build(
        spec.size, unroll=spec.unroll, max_threads=spec.max_threads
    )


def _sim_by_hand(rec: Recorder, spec: JobSpec, multigroup: bool) -> JobOutcome:
    """What ``run_job(spec)`` does, one span per public call.

    *multigroup* swaps the platform's adapter for the 2-group hardware-TSU
    ablation, which is not a ``Platform`` and so not a JobSpec ``run_job``
    can execute: that op goes through here in the untraced run too.
    """
    with rec.span("apps.build_s"):
        prog = _build(spec)
    with rec.span("platforms.execute_s"):
        if multigroup:
            par = SimulatedRuntime(
                prog,
                BAGLE_27,
                nkernels=spec.nkernels,
                adapter_factory=lambda eng, tsu: MultiGroupHardwareAdapter(
                    eng, tsu, n_groups=2
                ),
            ).run()
        else:
            par = spec.platform.execute(
                prog,
                nkernels=spec.nkernels,
                tsu_capacity=spec.tsu_capacity,
                exact_memory=spec.exact_memory,
                allow_stealing=spec.allow_stealing,
            )
    with rec.span("apps.verify_s"):
        get_benchmark(spec.bench).verify(par.env, spec.size)
    with rec.span("obs.to_record_s"):
        record = par.to_record()
    return JobOutcome(par.cycles, par.region_cycles, result=record)


def _traced_sim(
    rec: Recorder, spec: JobSpec, cache: ResultCache, multigroup: bool = False
) -> JobOutcome:
    """One simulation by hand, then the exec layer's handling of its
    outcome and the per-layer peels."""
    outcome = _sim_by_hand(rec, spec, multigroup)
    _count_record(rec, outcome.result)
    rec.count("exec.sims")

    with rec.peel():
        # exec: what the pool and the cache do with a finished job
        with rec.span("exec.digest_s"):
            digest = spec_digest(spec)
        with rec.span("exec.pickle_s"):
            spec_bytes = pickle.dumps(spec)
            outcome_bytes = pickle.dumps(outcome)
            pickle.loads(spec_bytes)
            pickle.loads(outcome_bytes)
        rec.count("exec.pickle_bytes", len(spec_bytes) + len(outcome_bytes))
        with rec.span("exec.cache_put_s"):
            cache.put(digest, outcome)
        with rec.span("exec.cache_get_s"):
            cached = cache.get(digest)
        if cached is None or cached.cycles != outcome.cycles:
            raise AssertionError(f"cache round trip lost {spec.bench}")

        # apps: the functional bodies alone
        prog = _build(spec)
        with rec.span("apps.bodies_s"):
            prog.run_sequential()
        # runtime: bodies + memory model + engine + TSUGroup, no protocol
        prog = _build(spec)
        with rec.span("runtime.zero_overhead_s"):
            SimulatedRuntime(prog, spec.platform.machine, spec.nkernels).run()
        # sim: the memory model alone, fed the declared access summaries
        prog = _build(spec)
        memsys = spec.platform.machine.memory_system(prog.env.regions)
        with rec.span("sim.memory.replay_s"):
            for i, inst in enumerate(prog.expanded().instances):
                memsys.run_summary(
                    i % spec.nkernels,
                    inst.template.access_summary(prog.env, inst.ctx),
                )
    return outcome


def _sim_fingerprint(outcome: JobOutcome) -> tuple:
    counters = outcome.result.counters.as_dict()
    return (
        outcome.cycles,
        outcome.region_cycles,
        counters.get("engine.events", 0),
        counters.get("tsu.dispatched", 0),
    )


@contextmanager
def _temp_cache_dir(scratch: Path) -> Iterator[str]:
    """A fresh result-cache directory, removed on exit."""
    path = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _count_cache(rec: Recorder, cache: ResultCache) -> None:
    rec.count("exec.cache.hits", cache.hits)
    rec.count("exec.cache.stores", cache.stores)


# -- paper_grid ----------------------------------------------------------------------

class PaperGrid:
    """The 14 cells with a printed paper value, each one ``evaluate_many``
    call: bodies, verification and long fastcache sweeps dominate."""

    name = "paper_grid"

    def __init__(self, seed: int, quick: bool, root: Path, scratch: Path) -> None:
        self.scratch = scratch
        label = "small" if quick else "large"
        self.cells: list[tuple[str, EvalRequest, float]] = []
        for fig, reference, platform, nkernels, unrolls in (
            ("fig5", PAPER.fig5_large_27, TFluxHard(), 27, (2, 8)),
            ("fig6", PAPER.fig6_best_6, TFluxSoft(), 6, (8, 32)),
            ("fig7", PAPER.fig7_best_6, TFluxCell(), 6, (16, 64)),
        ):
            for bench, paper_speedup in reference.items():
                request = EvalRequest(
                    platform=platform,
                    bench=bench,
                    size=problem_sizes(bench, platform.target)[label],
                    nkernels=nkernels,
                    unrolls=unrolls,
                    verify=True,
                    max_threads=1024,
                )
                self.cells.append((f"{fig}.{bench}", request, paper_speedup))
        random.Random(seed).shuffle(self.cells)

    def repetition(self, rec: Recorder) -> None:
        if not rec.traced:
            self._repetition(rec, None)
            return
        with _temp_cache_dir(self.scratch) as cache_dir:
            self._repetition(rec, ResultCache(cache_dir))

    def _repetition(self, rec: Recorder, cache: Optional[ResultCache]) -> None:
        clear_baseline_memo()
        errors: list[float] = []
        for op_id, request, paper_speedup in self.cells:
            with rec.op(op_id) as op:
                if rec.traced:
                    par_cycles, seq_cycles = self._traced_cell(rec, request, cache)
                else:
                    ev = evaluate_many([request], jobs=1, cache=None)[0]
                    par_cycles, seq_cycles = ev.parallel_cycles, ev.sequential_cycles
                op.fingerprint = (par_cycles, seq_cycles)
                speedup = seq_cycles / par_cycles
                errors.append(abs(speedup - paper_speedup) / paper_speedup)
        if len(errors) == len(self.cells):
            rec.note("model_error_pct", 100.0 * sum(errors) / len(errors))
        if rec.traced:
            rec.count("exec.cells", len(self.cells))
            # exec: evaluate_many with every simulation already on disk is
            # its own work — digests, cache reads, baseline memo, assembly.
            clear_baseline_memo()
            with rec.span("exec.evaluate_overhead_s"):
                evaluate_many(
                    [request for _, request, _ in self.cells],
                    jobs=1,
                    cache=cache,
                )
            _count_cache(rec, cache)

    def _traced_cell(
        self, rec: Recorder, request: EvalRequest, cache: ResultCache
    ) -> tuple[int, int]:
        """``evaluate_many([request])`` by hand: every unroll, then the
        canonical unroll=1 baseline; best speedup wins."""

        def spec(unroll: int, mode: str) -> JobSpec:
            return JobSpec(
                platform=request.platform,
                bench=request.bench,
                size=request.size,
                nkernels=request.nkernels if mode == "execute" else 1,
                unroll=unroll,
                max_threads=request.max_threads,
                verify=mode == "execute",
                mode=mode,
            )

        par_cycles = min(
            _traced_sim(rec, spec(unroll, "execute"), cache).measured_cycles
            for unroll in request.unrolls
        )
        baseline = spec(1, "sequential")
        with rec.span("apps.build_s"):
            prog = _build(baseline)
        with rec.span("platforms.baseline_s"):
            seq = request.platform.sequential_baseline(prog)
        seq_cycles = seq.region_cycles or seq.cycles
        rec.count("exec.sims")
        rec.count("sim.seq_cycles_total", seq_cycles)
        # the same cache entry evaluate_many would store for the baseline
        cache.put(
            spec_digest(baseline),
            JobOutcome(seq.cycles, seq.region_cycles, seq_cycles=seq_cycles),
        )
        return par_cycles, seq_cycles


# -- fine_grain ----------------------------------------------------------------------

class FineGrain:
    """~30 single simulations at size Small: the engine, the TSU adapters,
    the network and short fastcache ranges dominate."""

    name = "fine_grain"

    def __init__(self, seed: int, quick: bool, root: Path, scratch: Path) -> None:
        self.scratch = scratch
        ops: list[tuple[str, JobSpec, bool]] = []

        def add(tag: str, platform, bench: str, nkernels: int, unroll: int,
                multigroup: bool = False, **extra: Any) -> None:
            spec = JobSpec(
                platform=platform,
                bench=bench,
                size=problem_sizes(bench, platform.target)["small"],
                nkernels=nkernels,
                unroll=unroll,
                verify=True,
                mode="execute",
                **extra,
            )
            ops.append((f"{tag}.{bench}.u{unroll}", spec, multigroup))

        # The seed only orders the ops: drawing unrolls from it would make
        # one seed's list several times the work of another's.
        # the platform x kernel-count grid, unroll 1/2/4 in rotation
        for i, (tag, make, nkernels) in enumerate((
            ("hard4", TFluxHard, 4),
            ("hard27", TFluxHard, 27),
            ("soft6", TFluxSoft, 6),
            ("cell6", TFluxCell, 6),
        )):
            for j, bench in enumerate(("trapez", "qsort", "fft")):
                add(tag, make(), bench, nkernels, (1, 2, 4)[(i + j) % 3])
        # one cell per figure and per ablation dimension the engine fast
        # path touches (the seven cells tools/bench_timing.py tracks)
        add("f5", TFluxHard(), "trapez", 8, 8, max_threads=1024)
        add("f5", TFluxHard(), "mmult", 8, 8, max_threads=1024)
        add("f6", TFluxSoft(), "trapez", 6, 8, max_threads=1024)
        add("f7", TFluxCell(), "trapez", 6, 8, max_threads=1024)
        add("exactmem", TFluxHard(), "trapez", 4, 8, max_threads=1024,
            exact_memory=True)
        add("stealing", TFluxHard(), "qsort", 4, 8, max_threads=1024,
            allow_stealing=True)
        add("multigroup", TFluxHard(), "trapez", 8, 8, multigroup=True,
            max_threads=1024)
        # TSU capacity 64: the graph is cut into many DDM blocks
        add("blocks64.hard4", TFluxHard(), "trapez", 4, 4, tsu_capacity=64)
        add("blocks64.soft6", TFluxSoft(), "qsort", 6, 2, tsu_capacity=64)
        add("blocks64.hard8", TFluxHard(), "fft", 8, 1, tsu_capacity=64)
        # message-passing nodes
        for nnodes in (2, 4):
            platform = TFluxDist(nnodes=nnodes)
            add(f"dist{nnodes}", platform, "trapez", platform.max_kernels, nnodes)
            add(f"dist{nnodes}", platform, "fft", platform.max_kernels, 1)
        # dynamic graphs: Subflow spawning and conditional arcs
        for bench in ("qsort_rec", "quad"):
            add("dyn.hard4", TFluxHard(), bench, 4, 1)
            add("dyn.soft6", TFluxSoft(), bench, 6, 2)
        self.ops = ops[::4] if quick else ops
        random.Random(seed).shuffle(self.ops)

    def repetition(self, rec: Recorder) -> None:
        if not rec.traced:
            for op_id, spec, multigroup in self.ops:
                with rec.op(op_id) as op:
                    outcome = (
                        _sim_by_hand(rec, spec, True) if multigroup else run_job(spec)
                    )
                    op.fingerprint = _sim_fingerprint(outcome)
            return
        with _temp_cache_dir(self.scratch) as cache_dir:
            cache = ResultCache(cache_dir)
            for op_id, spec, multigroup in self.ops:
                with rec.op(op_id) as op:
                    outcome = _traced_sim(rec, spec, cache, multigroup)
                    op.fingerprint = _sim_fingerprint(outcome)
                    counters = outcome.result.counters.as_dict()
                    rec.note(
                        f"events_per_instance.{op_id}",
                        counters.get("engine.events", 0)
                        / max(counters.get("tsu.dispatched", 0), 1),
                    )
            rec.count("exec.cells", len(self.ops))
            _count_cache(rec, cache)


# -- the synthetic .ddm generator ------------------------------------------------------

@dataclass(frozen=True)
class DDMSource:
    name: str
    text: str
    #: array name -> expected contents after the program ran (closed form)
    expected: dict[str, np.ndarray]


def _pipeline(name, rng, stages, contexts, width) -> DDMSource:
    """``stages`` maps over disjoint per-context ranges, no depends():
    the deriver must emit context-for-context "same" arcs."""
    n = contexts * width
    span = f"CTX * {width} .. CTX * {width} + {width}"
    loop = f"for (i = CTX * {width}; i < CTX * {width} + {width}; i = i + 1)"
    lines = [f"#pragma ddm startprogram name({name})"]
    lines += [f"#pragma ddm var double s{k}[{n}]" for k in range(stages)]
    lines += [
        "",
        f"#pragma ddm thread 1 context({contexts}) writes(s0[{span}])",
        "int i;",
        f"{loop} {{ s0[i] = i; }}",
        "#pragma ddm endthread",
    ]
    values = np.arange(n, dtype=float)
    for k in range(1, stages):
        mul, add = rng.randint(1, 4), rng.randint(0, 9)
        lines += [
            "",
            f"#pragma ddm thread {k + 1} context({contexts}) "
            f"reads(s{k - 1}[{span}]) writes(s{k}[{span}])",
            "int i;",
            f"{loop} {{ s{k}[i] = s{k - 1}[i] * {mul}.0 + {add}.0; }}",
            "#pragma ddm endthread",
        ]
        values = values * mul + add
    lines += ["", "#pragma ddm endprogram", ""]
    return DDMSource(name, "\n".join(lines), {f"s{stages - 1}": values})


def _stencil(name, rng, stages, contexts, width) -> DDMSource:
    """A producer and a 3-point halo consumer behind a declared barrier
    exactly as wide as the halo needs at this granularity (one stencil
    step whatever *stages* says)."""
    n = contexts * width
    scale = rng.randint(1, 6)
    span = f"CTX * {width} .. CTX * {width} + {width}"
    loop = f"for (i = CTX * {width}; i < CTX * {width} + {width}; i = i + 1)"
    text = "\n".join([
        f"#pragma ddm startprogram name({name})",
        f"#pragma ddm var double src[{n}]",
        f"#pragma ddm var double dst[{n}]",
        "",
        f"#pragma ddm thread 1 context({contexts}) writes(src[{span}])",
        "int i;",
        f"{loop} {{ src[i] = i * {scale}.0; }}",
        "#pragma ddm endthread",
        "",
        f"#pragma ddm thread 2 context({contexts}) depends(1 all) reads(src) "
        f"writes(dst[{span}])",
        "int i;",
        f"{loop} {{",
        "    dst[i] = src[i];",
        "    if (i > 0) { dst[i] = dst[i] + src[i - 1]; }",
        f"    if (i < {n - 1}) {{ dst[i] = dst[i] + src[i + 1]; }}",
        "}",
        "#pragma ddm endthread",
        "",
        "#pragma ddm endprogram",
        "",
    ])
    src = np.arange(n, dtype=float) * scale
    dst = src.copy()
    dst[1:] += src[:-1]
    dst[:-1] += src[1:]
    return DDMSource(name, text, {"dst": dst})


def _reduction(name, rng, stages, contexts, width) -> DDMSource:
    """Per-context partial sums and one collector, no depends(): the
    deriver must emit the "all" arc (two stages whatever *stages* says)."""
    n = contexts * width
    scale = rng.randint(1, 6)
    text = "\n".join([
        f"#pragma ddm startprogram name({name})",
        f"#pragma ddm var double parts[{contexts}]",
        "#pragma ddm var double total[1]",
        "",
        f"#pragma ddm thread 1 context({contexts}) writes(parts[CTX])",
        "int i;",
        "parts[CTX] = 0.0;",
        f"for (i = CTX * {width}; i < CTX * {width} + {width}; i = i + 1) "
        f"{{ parts[CTX] = parts[CTX] + i * {scale}.0; }}",
        "#pragma ddm endthread",
        "",
        "#pragma ddm thread 2 reads(parts) writes(total[0])",
        "int i;",
        "total[0] = 0.0;",
        f"for (i = 0; i < {contexts}; i = i + 1) "
        "{ total[0] = total[0] + parts[i]; }",
        "#pragma ddm endthread",
        "",
        "#pragma ddm endprogram",
        "",
    ])
    return DDMSource(
        name, text, {"total": np.array([scale * n * (n - 1) / 2.0])}
    )


def synthetic_ddm(seed: int, count: int) -> list[DDMSource]:
    """*count* DDM sources that know their closed-form output.

    Shape x stage count x context count x array size come from a fixed
    grid, so every seed gets the same amount of work; the seed orders the
    grid and draws the constants the programs compute with.
    """
    shapes = itertools.cycle((_pipeline, _stencil, _reduction))
    stages = itertools.cycle((2, 3, 4, 5))
    contexts = itertools.cycle((2, 4, 8, 16, 4))
    widths = itertools.cycle((2, 4, 8, 16, 8, 4, 2))
    grid = [
        (f"syn{i}", next(shapes), next(stages), next(contexts), next(widths))
        for i in range(count)
    ]
    rng = random.Random(seed)
    rng.shuffle(grid)
    return [shape(name, rng, *sizes) for name, shape, *sizes in grid]


# -- toolchain_check -----------------------------------------------------------------

#: seeded-bug fixture -> how the bug must be diagnosed
_FIXTURES = {
    "racy_writers": "race",
    "undeclared_write": "undeclared",
    "redundant_arc": "redundant",
}


def diagnose_fixture(rec: Recorder, name: str, source: str, kind: str) -> None:
    """One op: *source* carries a seeded bug of *kind*; reporting it clean
    fails the op."""
    with rec.op(f"fixture.{name}") as op:
        with rec.span("preprocessor.compile_s"):
            prog = compile_to_program(source)
        if kind == "redundant":
            with rec.span("core.check_deps_s"):
                found = len(check_deps(prog).redundant)
        else:
            with rec.span("check.run_checked_s"):
                report = run_checked(prog)
            found = len(report.races if kind == "race" else report.undeclared)
        if not found:
            raise AssertionError(f"seeded {kind} bug reported clean")
        op.fingerprint = found
        if rec.traced:
            rec.count(
                "core.deps_findings" if kind == "redundant" else "check.findings",
                found,
            )


class ToolchainCheck:
    """Preprocessor, static and dynamic checkers over seeded .ddm sources,
    the seven apps and the seeded-bug fixtures: no simulator at all."""

    name = "toolchain_check"
    #: hundreds to thousands of instances per app without SUSAN's
    #: reachability matrix taking the whole repetition
    APP_UNROLL = 4

    def __init__(self, seed: int, quick: bool, root: Path, scratch: Path) -> None:
        self.sources = synthetic_ddm(seed, 6 if quick else 30)
        self.examples = [
            (path.stem, path.read_text())
            for path in sorted((root / "examples" / "ddm").glob("*.ddm"))
        ]
        self.fixtures = [
            (name, (root / "tests" / "data" / f"{name}.ddm").read_text(), kind)
            for name, kind in _FIXTURES.items()
        ]
        labels = ("small",) if quick else ("small", "large")
        self.apps = [
            (bench, label) for bench in sorted(BENCHMARKS) for label in labels
        ]
        random.Random(seed).shuffle(self.apps)

    def repetition(self, rec: Recorder) -> None:
        for source in self.sources:
            self._ddm_op(rec, source.name, source.text, source.expected)
        for name, text in self.examples:
            self._ddm_op(rec, f"example.{name}", text, {})
        for bench, label in self.apps:
            self._app_op(rec, bench, label)
        for name, text, kind in self.fixtures:
            diagnose_fixture(rec, name, text, kind)

    def _ddm_op(
        self, rec: Recorder, name: str, text: str,
        expected: dict[str, np.ndarray],
    ) -> None:
        with rec.op(f"ddm.{name}") as op:
            with rec.span("preprocessor.emit_s"):
                module = emit_module(text)
            with rec.span("preprocessor.compile_s"):
                prog = compile_to_program(text)
            op.fingerprint = (len(module),) + self._check(rec, prog)
            for array, values in expected.items():
                got = np.asarray(prog.env.array(array), dtype=float)
                if not np.array_equal(got, values):
                    raise AssertionError(f"{name}: wrong contents of {array}")
            if rec.traced:
                with rec.peel():
                    prog = compile_to_program(text)
                    with rec.span("apps.bodies_s"):
                        prog.run_sequential()

    def _app_op(self, rec: Recorder, bench_name: str, label: str) -> None:
        bench = get_benchmark(bench_name)
        size = problem_sizes(bench_name, "S")[label]
        with rec.op(f"app.{bench_name}.{label}") as op:
            with rec.span("apps.build_s"):
                prog = bench.build(size, unroll=self.APP_UNROLL)
            op.fingerprint = self._check(rec, prog)
            with rec.span("apps.verify_s"):
                bench.verify(prog.env, size)
            if rec.traced:
                with rec.peel():
                    prog = bench.build(size, unroll=self.APP_UNROLL)
                    with rec.span("apps.bodies_s"):
                        prog.run_sequential()
                    with rec.span("core.build_declared_s"):
                        bench.build(size, unroll=self.APP_UNROLL, deps="declared")
                    with rec.span("core.build_derived_s"):
                        derived = bench.build(
                            size, unroll=self.APP_UNROLL, deps="derived"
                        )
                    rec.count("core.arcs_derived", len(derived.graph.arcs))

    def _check(self, rec: Recorder, prog) -> tuple:
        """check_deps then run_checked; a clean program reported dirty
        raises.  Leaves *prog* executed (run_checked ran its bodies)."""
        with rec.span("core.check_deps_s"):
            deps = check_deps(prog)
        if not deps.ok:
            raise AssertionError(f"check_deps: {deps.format()}")
        with rec.span("check.run_checked_s"):
            report = run_checked(prog)
        if not report.ok:
            raise AssertionError(f"run_checked: {report.format()}")
        if rec.traced:
            rec.count("core.instances", prog.ninstances)
            rec.count("core.deps_findings", len(deps.missing) + len(deps.redundant))
            rec.count("check.ops_recorded", report.ops_recorded)
            rec.count("check.instances_recorded", report.instances_recorded)
            rec.count("check.findings", len(report.findings))
        return (
            prog.ninstances,
            len(deps.redundant),
            report.instances_recorded,
            report.ops_recorded,
        )


# -- serve_mix -----------------------------------------------------------------------

class ServeMix:
    """The serving tier, closed loop: cold unique jobs, a herd on shared
    specs, then disk-cache reads after a restart."""

    name = "serve_mix"

    CLIENTS = 2
    #: One batch is one job from each template, so every batch costs the
    #: same whatever the seed; tens of milliseconds of simulation each.
    TEMPLATES = (
        dict(bench="trapez", platform="hard", nkernels=4, unroll=8),
        dict(bench="trapez", platform="soft", nkernels=4, unroll=16),
        dict(bench="qsort", platform="hard", nkernels=4, unroll=1),
        dict(bench="qsort", platform="soft", nkernels=2, unroll=2),
        dict(bench="fft", platform="hard", nkernels=4, unroll=1),
        dict(bench="fft", platform="soft", nkernels=2, unroll=1),
    )
    BATCH = len(TEMPLATES)

    def __init__(self, seed: int, quick: bool, root: Path, scratch: Path) -> None:
        self.scratch = scratch
        rng = random.Random(seed)
        cold_batches = 1 if quick else 2  # per client
        self.herd_rounds = 3 if quick else 80
        self.disk_rounds = 1 if quick else 100
        # max_threads never binds at these sizes; it only makes the digest
        # of every minted spec unique, per seed
        base = 1024 + 128 * rng.randrange(64)
        serial = iter(range(128))

        def batches(count: int) -> list[list[dict[str, Any]]]:
            out = []
            for _ in range(count):
                batch = [
                    job_to_wire(max_threads=base + next(serial), **template)
                    for template in self.TEMPLATES
                ]
                rng.shuffle(batch)
                out.append(batch)
            return out

        #: per client: the unique batches it submits in the cold phase
        self.cold = [batches(cold_batches) for _ in range(self.CLIENTS)]
        #: one grid both clients submit at the same moment, then again
        self.herd_grid = batches(1)[0]
        self.cold_jobs = self.CLIENTS * cold_batches * self.BATCH
        self.unique = self.cold_jobs + self.BATCH
        self.herd_jobs = self.CLIENTS * (1 + self.herd_rounds) * self.BATCH
        self.disk_jobs = self.CLIENTS * self.disk_rounds * self.BATCH
        self.sample: Optional[dict[str, Any]] = rng.choice(self.cold[0][0])
        self._wire: list[dict[str, Any]] = []

    def jobs_per_s(self, parts: dict[str, float]) -> tuple[float, float]:
        """(cold, hot) throughput from the typical phase seconds."""
        return (
            self.cold_jobs / parts["cold_phase"],
            (self.herd_jobs + self.disk_jobs)
            / (parts["herd_phase"] + parts["disk_phase"]),
        )

    # One repetition = fresh cache dir, server A (cold, herd), server B (disk).
    def repetition(self, rec: Recorder) -> None:
        if self.sample is not None:  # once, in the warm-up repetition
            self._check_sample(rec, self.sample)
            self.sample = None
        with _temp_cache_dir(self.scratch) as cache_dir:
            self._wire = []
            stats_a = self._server_life(
                rec, cache_dir, (("cold", self._cold), ("herd", self._herd))
            )
            stats_b = self._server_life(rec, cache_dir, (("disk", self._disk),))
            with rec.op("accounting", latency=False) as op:
                executed = stats_a["executed"] + stats_b["executed"]
                if executed != self.unique:
                    raise AssertionError(
                        f"serve.executed={executed} for {self.unique} unique specs"
                    )
                op.fingerprint = (stats_a["executed"], stats_b["executed"])
            if rec.traced:
                self._count(rec, stats_a, stats_b)
                self._protocol_spans(rec)

    def _server_life(self, rec: Recorder, cache_dir: str, phases) -> dict[str, Any]:
        handle = serve_in_thread(
            ServeConfig(workers=1), cache=ResultCache(cache_dir)
        )
        try:
            for phase, client_fn in phases:
                rec.sample_host_speed(5)  # no client thread is running
                barrier = threading.Barrier(self.CLIENTS + 1)
                threads = [
                    threading.Thread(
                        target=self._client,
                        args=(rec, handle.address, index, barrier, client_fn),
                    )
                    for index in range(self.CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                try:
                    barrier.wait(timeout=60)  # every client is connected
                except threading.BrokenBarrierError:
                    pass  # a client failed to connect; its op records why
                start = time.perf_counter()
                with rec.span(f"serve.{phase}_phase_s"):
                    for thread in threads:
                        thread.join()
                rec.part(f"{phase}_phase", time.perf_counter() - start)
            rec.sample_host_speed(5)
            with ServeClient(handle.address) as client:
                return client.stats()
        finally:
            handle.stop()
            _reap_children()

    def _client(self, rec, address, index: int, barrier, client_fn) -> None:
        try:
            with ServeClient(address, tenant=f"t{index}") as client:
                barrier.wait()
                client_fn(rec, client, index)
        except threading.BrokenBarrierError:
            pass
        except Exception as exc:  # a client died: every op it owed fails
            barrier.abort()
            with rec.op(f"client{index}.crashed", latency=False):
                raise exc

    def _submit(self, rec: Recorder, client: ServeClient, op_id: str,
                jobs: list[dict[str, Any]], keep: bool = False) -> None:
        with rec.op(op_id, part=False) as op:
            result = client.submit(jobs)
            if not result.ok:
                raise AssertionError(
                    f"batch {result.status}: {result.message or result.errors}"
                )
            op.fingerprint = tuple(o.cycles for o in result.outcomes)
        if keep:
            self._wire.extend(result.wire[i] for i in range(len(jobs)))
        if rec.traced:
            rec.count("serve.wire_bytes", sum(
                len(encode({"type": "result", "batch_id": result.batch_id,
                            "index": i, "outcome": result.wire[i]}))
                for i in range(len(jobs))
            ))

    def _cold(self, rec: Recorder, client: ServeClient, index: int) -> None:
        for n, jobs in enumerate(self.cold[index]):
            self._submit(rec, client, f"cold.c{index}.b{n}", jobs, keep=True)

    def _herd(self, rec: Recorder, client: ServeClient, index: int) -> None:
        # both clients open with the same fresh grid: one simulation each,
        # the other client coalesces onto it or hits the LRU
        self._submit(rec, client, f"herd.c{index}.fresh", self.herd_grid)
        grids = [self.herd_grid] + [b for c in self.cold for b in c]
        for n in range(self.herd_rounds):
            self._submit(
                rec, client, f"herd.c{index}.r{n}", grids[n % len(grids)]
            )

    def _disk(self, rec: Recorder, client: ServeClient, index: int) -> None:
        for n in range(self.disk_rounds):
            jobs = self.cold[index][n % len(self.cold[index])]
            self._submit(rec, client, f"disk.c{index}.r{n}", jobs)

    def _check_sample(self, rec: Recorder, wire_job: dict[str, Any]) -> None:
        """A streamed outcome must equal a direct ``run_job`` of its spec."""
        with rec.op("sample.direct_run_job", latency=False):
            handle = serve_in_thread(ServeConfig(workers=1), cache=None)
            try:
                with ServeClient(handle.address, tenant="sample") as client:
                    streamed = client.submit([wire_job]).wire[0]
            finally:
                handle.stop()
                _reap_children()
            direct = outcome_to_wire(run_job(job_from_wire(wire_job)))
            if streamed != direct:
                raise AssertionError("streamed outcome differs from run_job")

    def _count(self, rec: Recorder, stats_a, stats_b) -> None:
        for stats in (stats_a, stats_b):
            counters = stats["counters"]
            rec.count("serve.submitted", counters.get("serve.admitted", 0))
            rec.count("serve.executed", stats["executed"])
            rec.count(
                "serve.dedup_or_lru_hits",
                counters.get("serve.deduped", 0) + counters.get("serve.lru_hits", 0),
            )
            rec.count("serve.rejected", counters.get("serve.rejected", 0))
            rec.count("exec.cache.hits", counters.get("exec.cache.hits", 0))
            rec.count("exec.cache.stores", counters.get("exec.cache.stores", 0))
        rec.count("exec.sims", stats_a["executed"] + stats_b["executed"])
        rec.count("serve.herd_jobs", self.herd_jobs)

    def _protocol_spans(self, rec: Recorder) -> None:
        """The wire and pickle layers alone, on this repetition's own
        cold-phase messages."""
        submits = [
            encode({"type": "submit", "batch_id": "b", "priority": 0, "jobs": batch})
            for client in self.cold for batch in client
        ]
        with rec.span("serve.protocol.decode_s"):
            specs = [
                job_from_wire(job)
                for line in submits for job in decode(line)["jobs"]
            ]
            outcomes = [outcome_from_wire(wire) for wire in self._wire]
        with rec.span("serve.protocol.encode_s"):
            for outcome in outcomes:
                encode({"type": "result", "outcome": outcome_to_wire(outcome)})
        pickled = 0
        with rec.span("exec.pickle_s"):
            for item in specs + outcomes:
                blob = pickle.dumps(item)
                pickled += len(blob)
                pickle.loads(blob)
        rec.count("exec.pickle_bytes", pickled)


def _reap_children(timeout: float = 10.0) -> None:
    """Wait until the pool workers of a stopped server have ended (the
    server shuts its pool down without waiting)."""
    import multiprocessing

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    for child in multiprocessing.active_children():
        child.kill()
        child.join()


WORKLOADS = {
    cls.name: cls for cls in (PaperGrid, FineGrain, ToolchainCheck, ServeMix)
}
