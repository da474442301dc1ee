"""The fast memory model against an independent reference.

``tests/reference_memory.py`` is the fast model as ``docs/simulation.md``
states it, sharing no code with ``repro.sim.fastcache``.  The harness
feeds every op to three models of one machine: the shipped
:class:`FastMemorySystem` (each sweep on the route its traffic picks),
:class:`SweepOnly` (every sweep through ``_sweep``) and the reference.
After every op both models must equal the reference: the op's cycles,
every core's ``CacheStats``, clocks, holes, settled residency, owners,
and sharer sets decoded from the sharer words and the presence word.
On the app streams, where that would cost more than the run, each op is
held to the reference on its own lines, the shipped model to
``SweepOnly`` on the op's region, and all state to the reference when
the run ends.  ``test_fastcache.py`` and ``test_fastcache_restream.py``
feed the same harness.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps import BENCHMARKS, get_benchmark, problem_sizes
from repro.platforms import TFluxHard, TFluxSoft
from repro.sim.accesses import AccessSummary, RegionSpace
from repro.sim.cache import CacheConfig, MemoryConfig
from repro.sim.capability import CORES_PER_NODE
from repro.sim.fastcache import FastMemorySystem
from repro.sim.machine import MachineConfig
from tests.reference_memory import ReferenceMemory

MEM = MemoryConfig(
    dram_latency=100, dram_burst_latency=16, cache_to_cache_latency=40, upgrade_latency=8
)


# -- the harness ----------------------------------------------------------------


class SweepOnly(FastMemorySystem):
    """Every sweep, short or repeated, through ``_sweep``: no ramps."""

    def _sweep_lines(self, core, region, lines, is_write, dense):
        sel = (slice(lines.start, lines.stop) if isinstance(lines, range)
               else np.asarray(lines, dtype=np.int64))
        return self._sweep(core, region, sel, len(lines), is_write, dense)

    _sweep_range = _sweep_lines


class Shipped(FastMemorySystem):
    """Counts the route each sweep takes: ``"sweep"`` (also per
    ``("sweep", region, core)``), ``"lines"`` and ``"ramp"``."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.routes = Counter()

    def _sweep(self, core, region, *args):
        self.routes["sweep"] += 1
        self.routes["sweep", region, core] += 1
        return super()._sweep(core, region, *args)

    def _sweep_lines(self, *args):
        self.routes["lines"] += 1
        return super()._sweep_lines(*args)

    def _resweep(self, *args):
        self.routes["ramp"] += 1
        return super()._resweep(*args)


def machine(ncores, shared_l2=False, single_issuer=False, extra_words=0):
    """A test machine's keywords: L2s shared by core pairs, and directory
    words forced past what *ncores* needs."""
    return dict(
        l2_groups=[c // 2 for c in range(ncores)] if shared_l2 else None,
        single_issuer=single_issuer,
        directory_words=-(-ncores // CORES_PER_NODE) + extra_words if extra_words else None,
    )


def _rows(tables, region, nlines):
    """A reference level's fill times of *region* as the model's array."""
    out = np.zeros((len(tables), nlines), dtype=np.int64)
    for row, regions in enumerate(tables):
        times = regions.get(region)
        if times:
            out[row, list(times)] = list(times.values())
    return out


def sharer_sets(model, region):
    """*region*'s sharers as ``{line: cores}``.  Several words need a
    presence word naming exactly the nodes holding a copy; one keeps none."""
    rs = model._state[region]
    held = rs.sharers != 0
    nodes = np.arange(model._nwords, dtype=np.uint64)[:, None]
    named = (rs.presence >> nodes) & np.uint64(1) if model._nwords > 1 else held
    assert np.array_equal(held, named != 0), "presence word"
    assert model._nwords > 1 or not rs.presence.any(), "presence word"
    out = {}
    for w, line in zip(*np.nonzero(held)):
        word, cores = int(rs.sharers[w, line]), out.setdefault(int(line), set())
        while word:
            cores.add(int(w) * CORES_PER_NODE + (word & -word).bit_length() - 1)
            word &= word - 1
    return out


def _residency(model, region):
    """Settled ``(l1_last, l2_last)``: the arrays when no ramp is pending."""
    rs = model._region_state(region)
    return model._settled(region) if rs.ramp1 or rs.ramp2 else (rs.l1_last, rs.l2_last)


def assert_models_equal(a, b, regions):
    """Two fast models in the same state over *regions*."""
    assert a.stats == b.stats and a._holes == b._holes
    assert np.array_equal(a._clock, b._clock) and np.array_equal(a._l2_clock, b._l2_clock)
    for region in regions:
        for la, lb in zip(_residency(a, region), _residency(b, region)):
            assert np.array_equal(la, lb), region
        ra, rb = a._state[region], b._state[region]
        for name in ("owner", "sharers", "presence"):
            assert np.array_equal(getattr(ra, name), getattr(rb, name)), (region, name)


class Harness:
    """One machine three times, fed the same ops: :class:`Shipped`,
    :class:`SweepOnly` (or a subclass) and the reference.  The shipped
    model is held to ``SweepOnly`` array for array, ``SweepOnly`` to the
    reference."""

    def __init__(self, ncores, l1, l2, mem, space, *, l2_groups=None,
                 single_issuer=False, directory_words=None, sweep_only=SweepOnly):
        kw = dict(l2_groups=l2_groups, single_issuer=single_issuer)
        args = (ncores, l1, l2, mem, space)
        self.space = space
        self.shipped = Shipped(*args, directory_words=directory_words, **kw)
        self.sweep_only = sweep_only(*args, directory_words=directory_words, **kw)
        self.reference = ReferenceMemory(ncores, l1, l2, mem, **kw)

    def run_summary(self, core, summary):
        """Each op through the three models, all state checked after each."""
        total = 0
        for op in summary:
            total += self.run_op(core, op)
            self.check()
        return total

    def run_op(self, core, op):
        cycles = self.reference.run_op(core, op)
        assert self.shipped.run_op(core, op) == cycles, ("shipped", core, op)
        assert self.sweep_only.run_op(core, op) == cycles, ("sweep-only", core, op)
        return cycles

    def _check_scalars(self):
        ref, model = self.reference, self.sweep_only
        assert model.stats == ref.stats and model._holes == ref.holes
        assert model._clock.tolist() == ref.clock
        assert model._l2_clock.tolist() == ref.l2_clock

    def check(self):
        """All state, every region."""
        regions = [reg.name for reg in self.space]
        assert_models_equal(self.shipped, self.sweep_only, regions)
        self._check_scalars()
        ref, model = self.reference, self.sweep_only
        for region in regions:
            nlines = self.space.get(region).lines(ref.line_size)
            for level, have, want in zip(("l1", "l2"), _residency(model, region), (ref.l1, ref.l2)):
                assert np.array_equal(have, _rows(want, region, nlines)), (region, level)
            owner = np.full(nlines, -1)
            owners = ref.owner.get(region, {})
            owner[list(owners)] = list(owners.values())
            assert np.array_equal(model._state[region].owner, owner), (region, "owner")
            assert sharer_sets(model, region) == ref.sharers.get(region, {}), region

    def check_op(self, core, op):
        """After one op of a long stream: the scalars; *core*'s L1 row, its
        L2 row and the owners on the op's lines against the reference; the
        shipped model against ``SweepOnly`` on the op's region."""
        region = op.region.name
        assert_models_equal(self.shipped, self.sweep_only, (region,))
        self._check_scalars()
        ref, rs = self.reference, self.sweep_only._state[region]
        lines, group = list(ref.lines(op)), ref.group[core]
        for have, times, missing in (
            (rs.l1_last[core], ref.l1[core].get(region, {}), 0),
            (rs.l2_last[group], ref.l2[group].get(region, {}), 0),
            (rs.owner, ref.owner.get(region, {}), -1),
        ):
            assert have[lines].tolist() == [times.get(i, missing) for i in lines], region


# -- the named branch streams and hypothesis streams of ``_sweep`` ------------------

# A 16-line L1 and a 32-line L2: sweeps of up to 16 lines can hit
# throughout, the pooled ranges of R (96 lines) overflow both levels, and a
# core sharing its L2 can age lines out of it that are still in the other
# core's L1.  S is the side region other traffic uses to plant invalidation
# holes.
L1 = CacheConfig(size=1024, line_size=64, assoc=2, read_latency=2, write_latency=0)
L2 = CacheConfig(size=2048, line_size=64, assoc=4, read_latency=20, write_latency=20)
R_LINES, S_LINES = 96, 32


class _Shapes(SweepOnly):
    """Names the shape of every sweep it runs, read off the state the sweep
    finds (no pending ramps: only the re-stream route makes them)."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.shapes = set()

    def _sweep(self, core, region, sel, n, is_write, dense=True):
        self.shapes |= _shapes(self, core, region, sel, n, is_write)
        return super()._sweep(core, region, sel, n, is_write, dense)


def _shapes(m, core, region, sel, n, is_write):
    rs = m._state[region]
    miss = rs.l1_last[core, sel] < max(1, m._clock.item(core) - m.l1_capacity + 1)
    single = m._single_issuer
    if not single:
        miss |= (rs.sharers[m._word_of[core], sel] & m._corebit[core]) == 0
    k = int(np.count_nonzero(miss))
    kind = "write" if is_write else "read"
    where = "single" if single else "multi"
    if not k:
        shape = "all-hit"
    elif k == n:
        shape = "all-miss"
    elif miss[:k].all():
        shape = "leading"
    else:
        shape = "scattered"
    tags = {f"{shape} {kind} {where}"}
    if not isinstance(sel, slice):
        tags.add(f"{shape} strided {where}")
    if k and m._holes[core]:
        tags.add(f"{shape} holes {where}")
    if not single:
        if not k and is_write:
            remote = rs.sharers[:, sel].copy()
            remote[m._word_of[core]] &= m._othermask[core]
            if remote.any():
                tags.add(f"all-hit upgrade nodes={m._nwords}")
        if k < n and (rs.l2_last[m.l2_groups[core], sel][~miss] < max(
            1, m._l2_clock.item(m.l2_groups[core]) - m.l2_capacity + 1
        )).any():
            tags.add("l1 hit, l2 aged")
        owners = rs.owner[sel][miss]
        if (owners == core).any():
            tags.add("own evicted line")
        if ((owners >= 0) & (owners != core)).any():
            tags.add("foreign owner")
            if not is_write and 2 * k < n:
                tags.add("foreign owner mostly-hit read")
    return tags


def _harness(ncores=4, shared_l2=False, single_issuer=False, extra_words=0):
    space = RegionSpace()
    space.region("R", R_LINES * 64)
    space.region("S", S_LINES * 64)
    kw = machine(ncores, shared_l2, single_issuer, extra_words)
    return Harness(ncores, L1, L2, MEM, space, sweep_only=_Shapes, **kw)


def _op(space, kind, write, line, nlines, reps=1):
    """*kind* ``dense`` or ``strided`` (every other line) on R, ``side``
    (dense) on S."""
    if kind == "strided":
        line = min(line, R_LINES - 2 * nlines)
        kw = dict(offset=line * 64, count=nlines, elem_size=8, stride=128)
    else:
        lines = S_LINES if kind == "side" else R_LINES
        line = min(line, lines - nlines)
        kw = dict(offset=line * 64, count=8 * nlines, elem_size=8, stride=8)
    s = AccessSummary()
    (s.write if write else s.read)(space.get("S" if kind == "side" else "R"), reps=reps, **kw)
    return s


def _run(harness, steps):
    for core, *op in steps:
        harness.run_summary(core, _op(harness.space, *op))


def _read(core, line, nlines, kind="dense"):
    return (core, kind, False, line, nlines)


def _write(core, line, nlines, kind="dense"):
    return (core, kind, True, line, nlines)


# name -> (machine, steps, the shape the stream must reach)
_BRANCHES = {
    "all_hit_read": (
        {}, [_read(0, 0, 8)] * 2, "all-hit read multi"),
    "all_hit_write": (
        {}, [_write(0, 0, 8)] * 2, "all-hit write multi"),
    "all_hit_strided": (
        {}, [_read(0, 0, 6, "strided")] * 2, "all-hit strided multi"),
    "all_hit_upgrade": (
        {}, [_read(0, 0, 8), _read(1, 0, 8), _write(0, 0, 8)], "all-hit upgrade nodes=1"),
    "all_hit_upgrade_70": (
        {"ncores": 70}, [_read(0, 0, 8), _read(65, 0, 8), _write(0, 0, 8)],
        "all-hit upgrade nodes=2"),
    "all_hit_upgrade_130": (
        {"ncores": 130},
        [_read(c, 0, 8) for c in (0, 1, 64, 65, 129)] + [_write(129, 0, 8)],
        "all-hit upgrade nodes=3"),
    "all_hit_single_read": (
        {"ncores": 1, "single_issuer": True}, [_read(0, 0, 8)] * 2, "all-hit read single"),
    "all_hit_single_write": (
        {"ncores": 2, "single_issuer": True}, [_write(0, 0, 8)] * 2, "all-hit write single"),
    "all_hit_single_strided": (
        {"ncores": 1, "single_issuer": True},
        [_read(0, 0, 6, "strided")] * 2, "all-hit strided single"),
    "leading_run": (
        {}, [_read(0, 4, 8), _read(0, 0, 12)], "leading read multi"),
    "leading_run_write": (
        {}, [_read(0, 4, 8), _read(1, 0, 12), _write(0, 0, 12)], "leading write multi"),
    "scattered": (
        {}, [_read(0, 4, 4), _read(0, 0, 12)], "scattered read multi"),
    "scattered_strided": (
        {}, [_read(0, 4, 2, "strided"), _read(0, 0, 6, "strided")],
        "scattered strided multi"),
    # core 0 holds 4 lines of S; core 1's write there frees 4 slots
    "leading_run_holes": (
        {}, [_read(0, 6, 6), _read(0, 0, 4, "side"), _write(1, 0, 4, "side"),
             _read(0, 0, 12)], "leading holes multi"),
    "scattered_holes": (
        {}, [_read(0, 4, 4), _read(0, 0, 4, "side"), _write(1, 0, 4, "side"),
             _read(0, 0, 12)], "scattered holes multi"),
    "all_miss_holes": (
        {}, [_read(0, 0, 8, "side"), _write(1, 0, 8, "side"), _read(0, 0, 3)],
        "all-miss holes multi"),
    "strided_holes": (
        {}, [_read(0, 0, 8, "side"), _write(1, 0, 8, "side"), _read(0, 0, 3),
             _read(0, 0, 6, "strided")], "scattered holes multi"),
    "holes_130": (
        {"ncores": 130},
        [_read(c, 0, 8, "side") for c in (0, 1, 2, 64, 65)]
        + [_write(129, 0, 8, "side")]
        + [_read(c, 2, 12) for c in (0, 1, 2, 64, 65)], "all-miss holes multi"),
    "foreign_owner_mostly_hit": (
        {}, [_read(0, 0, 12), _write(1, 5, 1), _read(0, 0, 12)],
        "foreign owner mostly-hit read"),
    "foreign_owner_shared_l2": (
        {"shared_l2": True}, [_read(0, 0, 12), _write(1, 5, 2), _write(2, 9, 1),
                              _read(0, 0, 12)], "foreign owner mostly-hit read"),
    "foreign_owner_70": (
        {"ncores": 70}, [_read(0, 0, 12), _write(66, 2, 1), _read(0, 0, 12)],
        "foreign owner mostly-hit read"),
    # two remote-owned lines lead the L2 fills, the DRAM misses follow them
    "owner_before_dram": (
        {}, [_write(1, 0, 2), _read(0, 0, 10)], "foreign owner"),
    # core 1 ages lines 0..3 out of the L2 it shares with core 0, whose L1
    # still holds them: they hit, and only the lines after them go to DRAM
    "l1_resident_l2_aged": (
        {"shared_l2": True}, [_read(0, 0, 4), _read(1, 20, 40), _read(0, 0, 8)],
        "l1 hit, l2 aged"),
    "own_evicted_line": (
        {}, [_write(0, 0, 4), _read(0, 20, 20), _read(0, 0, 4)], "own evicted line"),
    "write_over_foreign_owner": (
        {}, [_read(0, 0, 12), _write(1, 3, 2), _write(0, 0, 12)], "foreign owner"),
}


@pytest.mark.parametrize("name", sorted(_BRANCHES))
def test_branch_streams(name):
    machine, steps, shape = _BRANCHES[name]
    harness = _harness(**machine)
    _run(harness, steps)
    shapes = harness.sweep_only.shapes
    assert shape in shapes, (shape, sorted(shapes))


_POOL = [(0, 8), (0, 12), (4, 8), (4, 4), (0, 24), (40, 16), (20, 20)]


@settings(max_examples=300, deadline=None)
@given(
    ncores=st.sampled_from([1, 2, 4, 4, 8, 27, 70, 130]),
    extra_words=st.integers(min_value=0, max_value=1),
    shared_l2=st.booleans(),
    single_issuer=st.booleans(),
    steps=st.lists(
        st.tuples(
            # active-core index; -1: every listed core in turn (all share)
            st.sampled_from([-1] + [0, 1, 2, 3, 4, 5] * 3),
            st.sampled_from(["dense"] * 4 + ["strided", "side"]),
            st.sampled_from([False] * 2 + [True]),
            st.one_of(
                st.sampled_from(_POOL),  # ranges that keep coming back
                st.tuples(st.integers(0, 80), st.integers(1, 24)),
            ),
            st.sampled_from([1, 1, 1, 2]),  # reps
        ),
        min_size=1,
        max_size=40,
    ),
)
@example(
    ncores=130, extra_words=0, shared_l2=False, single_issuer=False,
    steps=[(-1, "dense", False, (0, 12), 1), (5, "dense", True, (4, 8), 1),
           (-1, "dense", False, (0, 12), 1), (0, "strided", True, (0, 8), 1)],
)
def test_sweep_identical_to_reference(ncores, extra_words, shared_l2, single_issuer, steps):
    """Random streams over a few repeating ranges: both models equal the
    reference after every op."""
    harness = _harness(ncores, shared_l2, single_issuer, extra_words)
    cores = sorted({0, 1 % ncores, 2 % ncores, ncores // 2, 65 % ncores, ncores - 1})
    run = []
    for ci, kind, write, (line, nlines), reps in steps:
        if single_issuer:
            issuers = cores[:1]
        else:
            issuers = cores if ci < 0 else [cores[ci % len(cores)]]
        run.extend((core, kind, write, line, nlines, reps) for core in issuers)
    _run(harness, run)


# -- one small run of every app, through a forwarding memory system ----------------

_PLATFORMS = {"hard": (TFluxHard, 27), "soft": (TFluxSoft, 6)}


class _Forward(Harness):
    """The memory system a run sees: each op through the three models,
    checked after every op."""

    def run_summary(self, core, summary):
        total = 0
        for op in summary:
            total += self.run_op(core, op)
            self.check_op(core, op)
        return total

    def total_stats(self):
        return self.shipped.total_stats()


@pytest.mark.parametrize("platform", sorted(_PLATFORMS))
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_app_op_stream(name, platform, monkeypatch):
    """The op stream of one small run (unroll 4) of *name*: the run's own
    memory system forwards each op to the harness."""
    make, nkernels = _PLATFORMS[platform]
    built = []

    def memory_system(m, regions, exact=False, single_issuer=False):
        built.append(_Forward(
            m.ncores, m.l1, m.l2, m.mem, regions,
            l2_groups=m.l2_groups(), single_issuer=single_issuer,
        ))
        return built[-1]

    monkeypatch.setattr(MachineConfig, "memory_system", memory_system)
    plat = make()
    bench = get_benchmark(name)
    size = problem_sizes(name, plat.target)["small"]
    result = plat.execute(bench.build(size, unroll=4), nkernels)
    bench.verify(result.env, size)
    (harness,) = built
    harness.check()
