"""App-level cross-validation of the exact and fast memory models.

The unit-level cross-validation lives in test_fastcache.py; here whole
benchmark programs run under both models and their *cycle totals* and
miss profiles must agree closely — the evidence that using the fast
model for the figure sweeps does not change any reported shape.
"""

import hashlib
from dataclasses import astuple

import pytest

from repro.apps import BENCHMARKS, get_benchmark, problem_sizes
from repro.apps.common import ProblemSize
from repro.platforms import TFluxHard
from repro.runtime.simdriver import SimulatedRuntime
from repro.sim.machine import BAGLE_27, CELL_PS3, XEON_8
from repro.tsu.hardware import HardwareTSUAdapter

# Tiny inputs so the exact (line-by-line Python) model stays fast.
TINY = {
    "trapez": ProblemSize("trapez", "S", "tiny", {"k": 14}),
    "mmult": ProblemSize("mmult", "S", "tiny", {"n": 32}),
    "qsort": ProblemSize("qsort", "S", "tiny", {"n": 2000}),
    "susan": ProblemSize("susan", "S", "tiny", {"w": 64, "h": 48}),
    "fft": ProblemSize("fft", "S", "tiny", {"n": 16}),
}


def run_both(name: str, nkernels: int = 4, unroll: int = 4):
    bench = get_benchmark(name)
    out = {}
    for exact in (False, True):
        prog = bench.build(TINY[name], unroll=unroll, max_threads=128)
        res = SimulatedRuntime(
            prog,
            BAGLE_27,
            nkernels=nkernels,
            adapter_factory=lambda e, t: HardwareTSUAdapter(e, t),
            exact_memory=exact,
        ).run()
        bench.verify(res.env, TINY[name])
        out["exact" if exact else "fast"] = res
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_cycle_totals_agree(name):
    res = run_both(name)
    fast, exact = res["fast"].region_cycles, res["exact"].region_cycles
    assert fast == pytest.approx(exact, rel=0.15), (
        f"{name}: fast {fast:,} vs exact {exact:,}"
    )


@pytest.mark.parametrize("name", sorted(TINY))
def test_access_counts_identical(name):
    """Both models process the same declared sweeps."""
    res = run_both(name)
    assert res["fast"].memory.accesses == res["exact"].memory.accesses


@pytest.mark.parametrize("name", ["mmult", "qsort"])
def test_coherence_profiles_close(name):
    """Producer/consumer coherence transfers match closely (they are
    exact per line in both models)."""
    res = run_both(name)
    f = res["fast"].memory.coherence_misses
    e = res["exact"].memory.coherence_misses
    assert f == pytest.approx(e, rel=0.2, abs=32), f"{name}: {f} vs {e}"


# -- the fast model against its own recorded history ---------------------------
#: sha256 over every op's (cycles, CacheStats of its core) when the seven
#: apps' declared summaries at size small replay through the fast model of
#: the three machines — instances dealt round-robin over the kernels, then
#: all from core 0 as ``single_issuer`` (the sequential baseline's path).
#: Recorded at the commit before timestamps became 1-based (PR 20's parent,
#: -1 = never, np.full); a representation change must not move it.  The
#: record then carried a ``writebacks`` field between ``upgrades`` and
#: ``accesses``, always 0 in the fast model; the digest hashes it as 0.
REPLAY_DIGEST = "5ce06a020923568143042b7ae37c79fcbb4118786f527ca160e005faf863580c"


def test_fast_model_replay_digest_unchanged():
    digest = hashlib.sha256()
    for machine, target, nkernels in (
        (BAGLE_27, "S", 27), (XEON_8, "N", 6), (CELL_PS3, "C", 6)
    ):
        for name in sorted(BENCHMARKS):
            size = problem_sizes(name, target)["small"]
            for single in (False, True):
                prog = get_benchmark(name).build(size, unroll=4, max_threads=256)
                memsys = machine.memory_system(prog.env.regions, single_issuer=single)
                for i, inst in enumerate(prog.expanded().instances):
                    core = 0 if single else i % nkernels
                    for op in inst.template.access_summary(prog.env, inst.ctx):
                        cycles = memsys.run_op(core, op)
                        fields = astuple(memsys.stats[core])
                        fields = fields[:5] + (0,) + fields[5:]  # writebacks
                        digest.update(repr((cycles, fields)).encode())
    assert digest.hexdigest() == REPLAY_DIGEST
