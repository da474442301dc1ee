"""The Kernel loop on the simulated machines.

Hosts the shared Kernel step machine (:mod:`repro.runtime.core`) on the
DES: :class:`SimulatedRuntime` is the :class:`~repro.runtime.core.KernelBackend`
whose time source is the engine clock, whose wait strategy is a DES
:class:`~repro.sim.engine.Event` guarded against lost wakeups (the
discipline documented in :mod:`repro.runtime.core`), and whose cost
charging flows through the platform's protocol adapter and the machine's
memory system.  It never runs a DThread body: the step machine does,
then asks ``charge_thread`` for the instance's compute/memory price —
the one producer of that number — and hands the body's outcome to
``complete``.  Each Kernel is one engine process running
:func:`~repro.runtime.core.kernel_loop`; the first Kernel's host process
additionally executes the program's sequential prologue before the
dataflow region opens and the epilogue after every Kernel exited.

The §5 baseline — the whole program on one core of the same machine
with no TFlux overheads — is two halves.  The functional half,
:func:`record_sequential`, iterates the program's own sequential loop
(:meth:`~repro.core.program.DDMProgram.steps`) and records each
section's and instance's cost and access callbacks as a
:class:`SequentialTrace`.  The timing half, :func:`price_sequential`,
runs those summaries through a fresh memory system of one machine;
nothing else in the trace depends on the machine, so a trace recorded
once prices on every platform
(:meth:`~repro.platforms.base.Platform.sequential_baseline`).  Both the
recording and :class:`SimulatedRuntime` evaluate section callbacks with
the one :func:`_section_callbacks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Optional

from repro.core.program import DDMProgram, SequentialSection
from repro.obs import NULL_PROBE, Counters, KernelAccount, Probe, RunRecord
from repro.runtime.core import Fetch, kernel_loop
from repro.runtime.stats import RunResult
from repro.sim.accesses import AccessSummary, RegionSpace
from repro.sim.memory import MainMemory
from repro.sim.engine import Engine, Event
from repro.sim.machine import MachineConfig
from repro.tsu.base import ProtocolAdapter, ZeroOverheadAdapter
from repro.tsu.group import TSUGroup
from repro.tsu.policy import PlacementPolicy, contiguous_placement

__all__ = [
    "SequentialTrace",
    "SimulatedRuntime",
    "price_sequential",
    "record_sequential",
]

#: Builds the platform's adapter: (engine, tsu) -> ProtocolAdapter.
AdapterFactory = Callable[[Engine, TSUGroup], ProtocolAdapter]


class SimulatedRuntime:
    """Timed execution of a DDM program on a simulated machine.

    Implements the :class:`~repro.runtime.core.KernelBackend` protocol:
    every step is a DES process fragment, so protocol costs, queueing
    and contention come from the adapter and the engine, never from the
    step machine itself.
    """

    #: KernelBackend: the DES backend never aborts cooperatively — a
    #: failing process surfaces through the engine run loop instead.
    stop_requested = False

    def __init__(
        self,
        program: DDMProgram,
        machine: MachineConfig,
        nkernels: int,
        adapter_factory: Optional[AdapterFactory] = None,
        tsu_capacity: Optional[int] = None,
        placement: PlacementPolicy = contiguous_placement,
        exact_memory: bool = False,
        platform_name: str = "sim",
        tracer=None,
        allow_stealing: bool = False,
    ) -> None:
        if nkernels < 1:
            raise ValueError("need at least one kernel")
        if nkernels > machine.ncores:
            raise ValueError(
                f"{nkernels} kernels exceed the machine's {machine.ncores} cores"
            )
        self.program = program
        self.machine = machine
        self.nkernels = nkernels
        self.platform_name = platform_name

        self.engine = Engine()
        self.blocks = program.blocks(tsu_capacity)
        self.tsu = TSUGroup(
            nkernels, self.blocks, placement=placement,
            allow_stealing=allow_stealing,
            root_graph=program.expanded(), tsu_capacity=tsu_capacity,
        )
        factory = adapter_factory or (lambda eng, tsu: ZeroOverheadAdapter(eng, tsu))
        self.adapter = factory(self.engine, self.tsu)
        self.memsys = machine.memory_system(program.env.regions, exact=exact_memory)
        self.adapter.attach_memory(
            self.memsys, machine.l1.line_size, program.env.regions
        )
        # Physical-memory accounting: the PS3's 256 MB XDR is small enough
        # to matter (paper §6.3); every shared region must fit.
        self.main_memory = MainMemory(capacity=machine.dram_bytes)
        for region in program.env.regions:
            self.main_memory.allocate(region.size)
        #: One unified per-kernel account (repro.obs) per Kernel: the
        #: step machine counts into it, this backend charges time into it.
        self.accounts = [KernelAccount(k) for k in range(nkernels)]
        #: The span sink (repro.obs probe protocol).  Every run emits
        #: spans through it; pass a collecting probe (e.g.
        #: :class:`repro.obs.Tracer`) to keep them.
        self.probe: Probe = tracer if tracer is not None else NULL_PROBE
        #: KernelBackend.emit_span is the probe's own method: one call a
        #: span, and the instance's name is formatted only if it is kept.
        self.emit_span = self.probe.record_instance
        self._wait_events: dict[int, Event] = {}

    # -- wake management ------------------------------------------------------
    def _wake(self, kernels: Optional[Iterable[int]] = None) -> None:
        # Parked kernels wake, and so fetch, in ascending id whatever
        # order the adapter names them in (docs/model.md).
        waiting = self._wait_events
        targets = sorted(waiting if kernels is None else [k for k in kernels if k in waiting])
        for k in targets:
            ev = self._wait_events.pop(k)
            if not ev.triggered:
                ev.succeed()

    # -- KernelBackend: time and charging (spans: see __init__) ---------------
    def now(self, kernel: int) -> float:
        return self.engine.now

    # The hot charges add to the account's fields in place: one call
    # fewer each, on every DThread.
    def charge_runtime(self, kernel: int, since: float) -> None:
        self.accounts[kernel].runtime += int(self.engine.now - since)

    # -- KernelBackend: protocol steps (DES process fragments) ----------------
    # A step that only delegates returns the adapter's generator instead of
    # wrapping it in one more: kernel_loop resumes one frame fewer deep.
    def fetch(self, kernel: int) -> Generator:
        return self.adapter.fetch(kernel)

    def wait(self, kernel: int) -> Generator:
        # Close the lost-wakeup window: the adapter's fetch may have
        # taken simulated time after reading the TSU state, during which
        # a wake could have fired unobserved.  The re-check runs on the
        # engine's cooperative timeline, so nothing can interleave
        # between it and the event registration below.
        if self.tsu.has_work(kernel):
            return
        ev = self._wait_events.get(kernel)
        if ev is None:
            ev = Event(self.engine, name=f"wake:k{kernel}")
            self._wait_events[kernel] = ev
        t0 = self.engine.now
        yield ev
        self.accounts[kernel].charge_idle(int(self.engine.now - t0))

    def run_inlet(self, kernel: int, fetch: Fetch) -> Generator:
        return self.adapter.complete_inlet(kernel, fetch.block)

    def run_outlet(self, kernel: int, fetch: Fetch) -> Generator:
        return self.adapter.complete_outlet(kernel, fetch.block)

    def charge_thread(self, kernel: int, fetch: Fetch, since: float) -> Generator:
        # The cost models' verdict on the instance kernel_loop just ran.
        inst = fetch.instance
        env = self.program.env
        compute = inst.template.compute_cost(env, inst.ctx)
        summary = inst.template.access_summary(env, inst.ctx)
        memory = self.adapter.thread_memory_cycles(kernel, inst, summary)
        if memory is None:
            memory = self.memsys.run_summary(kernel, summary)
        if compute + memory > 0:
            yield compute + memory
        account = self.accounts[kernel]
        account.compute += compute
        account.memory += int(memory)

    def complete(self, kernel: int, fetch: Fetch, outcome: object) -> Generator:
        assert fetch.local_iid is not None
        if outcome is None:  # static threads: zero extra DES events
            return self.adapter.complete_thread(
                kernel, fetch.local_iid, fetch.instance, None
            )
        return self._complete_dynamic(kernel, fetch, outcome)

    def _complete_dynamic(self, kernel: int, fetch: Fetch, outcome: object) -> Generator:
        yield from self.adapter.resolve_dynamic(kernel, fetch.local_iid, outcome)
        yield from self.adapter.complete_thread(
            kernel, fetch.local_iid, fetch.instance, outcome
        )

    # -- sequential sections --------------------------------------------------------
    def _run_sections(self, sections) -> Generator:
        env = self.program.env
        for section in sections:
            section.run(env)
            compute, summary = _section_callbacks(section, env)
            memory = 0
            if summary is not None:
                memory = int(self.memsys.run_summary(0, summary))
            if compute + memory:
                yield compute + memory
            self.accounts[0].charge_compute(compute)
            self.accounts[0].charge_memory(memory)

    def _main_proc(self) -> Generator:
        yield from self._run_sections(self.program.prologue)

        self._region_start = self.engine.now
        self.adapter.start()
        kernel_procs = [
            self.engine.process(
                kernel_loop(self, k, self.accounts[k]), name=f"kernel{k}"
            )
            for k in range(self.nkernels)
        ]
        yield self.engine.all_of([p.done for p in kernel_procs])
        self._region_end = self.engine.now

        self.adapter.shutdown()

        yield from self._run_sections(self.program.epilogue)

    # -- entry point -------------------------------------------------------------------
    def run(self) -> RunResult:
        self.program.mark_executed()
        self._region_start = 0.0
        self._region_end = 0.0
        main = self.engine.process(self._main_proc(), name="main")
        # The adapter wakes this runtime's kernels for the length of the
        # run only: left wired, runtime -> adapter -> bound method ->
        # runtime is a cycle that keeps the whole simulation (engine,
        # TSU Group, memory system, program) alive until the cycle
        # collector runs.  A run that raised or stalled also leaves
        # processes suspended, each in a cycle of its own: the engine
        # closes them.
        unwired = self.adapter.wake_kernels
        self.adapter.wake_kernels = self._wake
        try:
            self.engine.run()
        finally:
            self.adapter.wake_kernels = unwired
            self.engine.clear()
        if main.is_alive:
            raise RuntimeError("simulation stalled (deadlocked kernels?)")
        # One registry for all accounting: the TSU Group's scheduling
        # counters plus whatever the platform adapter published (traffic,
        # emulator occupancy, DMA volume) — the single path every counter
        # takes into the RunRecord crossing the repro.exec boundary.
        counters = Counters()
        self.tsu.publish_counters(counters)
        self.adapter.publish_counters(counters)
        # DES engine telemetry: heap churn of this run (events/instance
        # is the simulator's own scheduling overhead per DThread).
        engine = counters.scope("engine")
        engine.inc("events", self.engine.events_executed)
        engine.inc("scheduled", self.engine.events_scheduled)
        return RunResult(
            program=self.program.name,
            platform=self.platform_name,
            nkernels=self.nkernels,
            cycles=int(self.engine.now),
            region_cycles=int(self._region_end - self._region_start),
            env=self.program.env,
            kernels=[a.snapshot() for a in self.accounts],
            memory=self.memsys.total_stats(),
            counters=counters,
            spans=list(self.probe.spans),
            nnodes=self.adapter.nnodes,
            topology=self.adapter.topology,
        )


@dataclass(frozen=True)
class SequentialTrace:
    """The functional half of the §5 baseline, recorded once per program.

    What the original sequential program did, in the order it did it:
    one ``(name, compute, summary)`` step per prologue section, DThread
    instance (fire order) and epilogue section, with the cost and access
    callbacks already evaluated against the live Environment right after
    each body ran.  Nothing in it depends on the machine, so one trace
    is priced on any number of them (:func:`price_sequential`).  It
    keeps the program's region space (what a memory system is built
    over) and no Environment.
    """

    program: str
    regions: RegionSpace
    #: ``(name, compute cycles, AccessSummary or None)`` per step.
    steps: list[tuple[str, int, Optional[AccessSummary]]]
    #: ``steps[lo:hi]`` are the DThread instances (the dataflow region);
    #: the steps before and after are the prologue and epilogue sections.
    region: tuple[int, int]


def _section_callbacks(section, env) -> tuple[int, Optional[AccessSummary]]:
    """A sequential section's compute cycles and access summary (``None``
    when it declares no accesses), evaluated right after it ran."""
    compute = int(section.compute_cost(env))
    summary = None if section.accesses is None else section.accesses(env)
    return compute, summary


def record_sequential(program: DDMProgram) -> SequentialTrace:
    """Run the original sequential program once and record its callbacks.

    Iterates :meth:`DDMProgram.steps` — prologue, every DThread instance
    in fire order, epilogue, all against the program's Environment,
    which holds the functional output afterwards — and evaluates each
    step's cost and access callbacks right after its body ran.
    """
    env = program.env
    steps: list[tuple[str, int, Optional[AccessSummary]]] = []
    for done in program.steps():
        if isinstance(done, SequentialSection):
            steps.append((done.name, *_section_callbacks(done, env)))
        else:
            template = done.template
            steps.append((
                done.name,
                int(template.compute_cost(env, done.ctx)),
                template.access_summary(env, done.ctx),
            ))
    return SequentialTrace(
        program=program.name,
        regions=env.regions,
        steps=steps,
        region=(len(program.prologue), len(steps) - len(program.epilogue)),
    )


def price_sequential(
    trace: SequentialTrace,
    machine: MachineConfig,
    exact_memory: bool,
    tracer: Optional[Probe],
) -> RunRecord:
    """Time a recorded baseline on one core of *machine*.

    A fresh single-issuer memory system prices every step's access
    summary in recorded order; a step takes its compute plus memory
    cycles, and nothing else moves the clock.  Spans (sections and
    DThreads, all on kernel 0) go to *tracer* when one is given.
    """
    probe: Probe = tracer if tracer is not None else NULL_PROBE
    memsys = machine.memory_system(
        trace.regions, exact=exact_memory, single_issuer=True
    )
    run_summary = memsys.run_summary
    lo, hi = trace.region
    # One fetch per DThread plus the EXIT reply, as the Kernel loop counts.
    account = KernelAccount(0)
    account.dthreads = hi - lo
    account.fetches = hi - lo + 1
    steps = trace.steps
    cycles = 0
    starts = []
    for kind, part in (
        ("section", steps[:lo]), ("thread", steps[lo:hi]), ("section", steps[hi:])
    ):
        starts.append(cycles)
        for name, compute, summary in part:
            memory = 0 if summary is None else int(run_summary(0, summary))
            account.charge_compute(compute)
            account.charge_memory(memory)
            start = cycles
            cycles += compute + memory
            probe.record(0, name, kind, start, cycles)
    return RunRecord(
        program=trace.program,
        platform=f"{machine.name}-sequential",
        nkernels=1,
        cycles=cycles,
        region_cycles=starts[2] - starts[1],
        kernels=[account.snapshot()],
        memory=memsys.total_stats(),
        spans=list(probe.spans),
    )
