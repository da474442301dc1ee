"""The O(1) re-stream route of the fast memory model, against the reference.

``FastMemorySystem._resweep`` prices a core's repeat sweep of the same
dense range from two pending-ramp descriptors; here the harness of
``test_fastcache_differential.py`` holds it to the reference — cycles,
stats, clocks, holes, directory and *settled* residency — after every op.
The streams are biased to the shapes that decide the route; the named
ones each hold one settle/eligibility rule (drop the rule and that stream
fails)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.accesses import AccessSummary, RegionSpace
from repro.sim.fastcache import _ramp_below
from tests.test_fastcache import L1_TINY, L2_TINY, MEM
from tests.test_fastcache_differential import Harness, machine

# L1_TINY holds 4 lines and L2_TINY 16, so the pooled ranges of R (48
# lines) fit the L1, fit the L2 only, or overflow both; S is the side
# region other traffic uses to age lines and to plant invalidation holes.
R_LINES, S_LINES = 48, 24
POOL = [(0, 40), (0, 12), (4, 10), (0, 3), (10, 20), (30, 18)]


def _harness(ncores=4, shared_l2=True, single_issuer=False, extra_words=0):
    space = RegionSpace()
    space.region("R", R_LINES * 64)
    space.region("S", S_LINES * 64)
    kw = machine(ncores, shared_l2, single_issuer, extra_words)
    return Harness(ncores, L1_TINY, L2_TINY, MEM, space, **kw)


def _op(space, step):
    """(kind, core, write?, first line, lines, reps) -> (core, summary)."""
    kind, core, write, line, nlines, reps = step
    if kind == "dense":
        kw = dict(offset=line * 64, count=8 * nlines, elem_size=8, stride=8)
    elif kind == "strided":  # every other line from *line*
        kw = dict(offset=line * 64, count=nlines, elem_size=8, stride=128)
    else:  # "side": the same shapes on the small region
        kw = dict(offset=(line % S_LINES) * 64, count=8 * min(nlines, S_LINES - line % S_LINES))
    s = AccessSummary()
    (s.write if write else s.read)(space.get("S" if kind == "side" else "R"), reps=reps, **kw)
    return core, s


def _run(harness, steps):
    for step in steps:
        harness.run_summary(*_op(harness.space, step))


def test_ramp_below_is_the_prefix_count():
    """``_ramp_below`` against the definition, on every small case: the
    off-by-ones at ``k``, ``thr`` and ``n`` all sit inside this grid."""
    for base in range(0, 4):
        for n in range(1, 7):
            for k in range(0, n + 1):
                for thr in range(0, base + n + 3):
                    stamps = [base + min(i + 1, k) for i in range(n)]
                    assert _ramp_below(base, k, n, thr) == sum(
                        s < thr for s in stamps
                    ), (base, k, n, thr)


def _reads(core, line, nlines, times):
    return [("dense", core, False, line, nlines, 1)] * times


# Each stream sets up pending ramps (three reads of one range), does the one
# thing a rule is about, and re-streams; cores 0 and 1 share an L2.
_RULES = {
    # misses only / L2 hits with an L1-resident tail / everything resident
    "restream_past_l2": _reads(0, 0, 40, 5),
    "restream_inside_l2": _reads(0, 0, 12, 5),
    "restream_inside_l1": _reads(0, 0, 3, 5),
    "reps_in_one_op": [("dense", 0, False, 4, 10, 6), ("dense", 0, False, 4, 10, 1)],
    # a different range on the same rows settles them
    "different_range": _reads(0, 0, 12, 3) + _reads(0, 1, 12, 1) + _reads(0, 0, 12, 3),
    "strided_over_pending": _reads(0, 0, 12, 3)
    + [("strided", 0, False, 0, 6, 1)] + _reads(0, 0, 12, 3),
    # the L2 row is shared: a sibling core uses and replaces its ramp
    "two_cores_one_l2": (_reads(0, 0, 20, 1) + _reads(1, 0, 20, 1)) * 4,
    "sibling_other_range": _reads(0, 0, 20, 3) + _reads(1, 4, 10, 1) + _reads(0, 0, 20, 3),
    # ... so a core's L1 ramp and its L2 row's can name different ranges
    "sibling_ramp_on_l2_row": _reads(0, 0, 12, 3) + [("side", 0, False, 0, 20, 1)]
    + _reads(1, 4, 10, 3) + _reads(0, 0, 12, 2),
    "sibling_ramp_is_my_range": _reads(0, 0, 12, 3) + _reads(1, 4, 10, 3) + _reads(0, 4, 10, 3),
    # ... and lines can sit in the L1 after the sibling aged them out of the L2
    "l1_resident_l2_aged": _reads(0, 0, 3, 3)
    + [("side", 1, False, 0, 20, 1)] + _reads(0, 0, 3, 2),
    # L1 misses a leading run, L2 fills not (the sibling refreshed lines 0..3):
    # the detected re-stream must leave the L2 row in the array
    "l2_fills_not_leading": _reads(0, 0, 12, 1) + [("side", 1, False, 0, 20, 1)]
    + _reads(1, 0, 4, 1) + _reads(0, 0, 12, 3),
    # one-line ops on the region settle it (own read, own write, a sibling's)
    "line_inside_pending": _reads(0, 0, 12, 3) + [("dense", 0, False, 5, 1, 1)]
    + _reads(0, 0, 12, 3) + [("dense", 0, True, 6, 1, 1)]
    + _reads(0, 0, 12, 3) + [("dense", 1, False, 7, 1, 1)] + _reads(0, 0, 12, 3),
    # a write clears sharer bits and takes ownership without planting a hole
    # (lines 4..7 have aged out of core 0's L1): the ramp must not survive it
    "writer_between": _reads(0, 0, 12, 3)
    + [("dense", 2, True, 4, 4, 1)] + _reads(0, 0, 12, 3),
    # ... and with the hole it plants consumed elsewhere before the re-stream
    "writer_hole_consumed": _reads(0, 0, 12, 3)
    + [("dense", 2, True, 10, 2, 1), ("side", 0, False, 0, 2, 1)] + _reads(0, 0, 12, 3),
    # a first read of lines core 0 owns stamps core 0's L2 row (downgrade)
    "downgrade_between": [("dense", 0, True, 0, 40, 1)] + _reads(0, 0, 40, 2)
    + [("dense", 2, False, 2, 4, 1)] + _reads(0, 0, 40, 3),
    # holes planted through another region: fills consume them first
    "holes_pending": _reads(0, 0, 12, 3)
    + [("side", 0, False, 0, 2, 1), ("side", 3, True, 0, 2, 1)] + _reads(0, 0, 12, 3),
    # a multi-core write re-stream stays on the array route
    "write_restream": [("dense", 0, True, 0, 12, 1)] * 4 + _reads(0, 0, 12, 3),
    "write_over_pending": _reads(0, 0, 12, 3)
    + [("dense", 0, True, 0, 12, 1)] * 2 + _reads(0, 0, 12, 3),
    "upgrade_over_pending": _reads(0, 0, 12, 3) + _reads(2, 0, 12, 1)
    + [("dense", 0, True, 0, 12, 1)] + _reads(0, 0, 12, 3),
}


@pytest.mark.parametrize("system", ["multi-1-word", "multi-2-word", "single"])
@pytest.mark.parametrize("stream", sorted(_RULES))
def test_restream_rules(stream, system):
    steps = _RULES[stream]
    single_issuer = system == "single"
    if single_issuer:
        steps = [(kind, 0, *rest) for kind, _core, *rest in steps]
    harness = _harness(single_issuer=single_issuer, extra_words=system == "multi-2-word")
    _run(harness, steps)
    assert harness.shipped.routes["ramp"], "the stream never took the ramp route"


@pytest.mark.parametrize("single_issuer", [False, True], ids=["multi", "single"])
def test_mmult_shaped_stream_takes_the_array_route_twice(single_issuer):
    """1,024 row passes, each reading its own rows of A, all of B, and
    writing its own rows of C, round-robin over the kernels: per core, B
    goes through ``_sweep`` on its first two passes and never again —
    another core's read of B must not settle this core's ramp."""
    ncores = 1 if single_issuer else 3
    space = RegionSpace()
    a = space.region("A", 1024 * 128)
    b = space.region("B", R_LINES * 64)
    c = space.region("C", 1024 * 128)
    harness = Harness(
        ncores, L1_TINY, L2_TINY, MEM, space,
        l2_groups=[0, 0, 1][:ncores], single_issuer=single_issuer,
    )
    for row in range(1024):
        s = AccessSummary()
        s.read(a, offset=row * 128, count=16).read(b).write(c, offset=row * 128, count=16)
        for op in s:
            harness.run_op(row % ncores, op)
    harness.check()
    routes = harness.shipped.routes
    for core in range(ncores):
        assert routes["sweep", "B", core] <= 2
    assert routes["ramp"] >= 1024 - 2 * ncores


_STEP = st.one_of(
    # the pooled ranges, mostly read, sometimes repeated inside one op
    st.tuples(
        st.just("dense"), st.integers(0, 3), st.sampled_from([False] * 3 + [True]),
        st.sampled_from(POOL), st.sampled_from([1, 1, 1, 2, 5]),
    ).map(lambda t: t[:3] + t[3] + t[4:]),
    st.tuples(
        st.sampled_from(["dense", "strided", "side"]), st.integers(0, 3), st.booleans(),
        st.integers(0, 20), st.integers(1, 9), st.integers(1, 2),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    ncores=st.sampled_from([1, 2, 4, 4, 8, 70]),
    extra_words=st.integers(min_value=0, max_value=1),
    shared_l2=st.booleans(),
    single_issuer=st.booleans(),
    # a short alphabet drawn per example, then a long word over it: the same
    # (core, range) keeps coming back, with the alphabet's other ops between
    alphabet=st.lists(_STEP, min_size=1, max_size=5),
    word=st.lists(st.integers(0, 4), min_size=1, max_size=60),
)
def test_resweep_state_identical_to_sweep(
    ncores, extra_words, shared_l2, single_issuer, alphabet, word
):
    """Random streams over a few repeating ops: the ramp route, the array
    route and the reference leave equal cycles and equal settled state
    after every op."""
    harness = _harness(ncores, shared_l2, single_issuer, extra_words)
    cores = sorted({0, 1 % ncores, ncores // 2, ncores - 1})
    steps = []
    for letter in word:
        kind, ci, *rest = alphabet[letter % len(alphabet)]
        core = cores[0] if single_issuer else cores[ci % len(cores)]
        steps.append((kind, core, *rest))
    _run(harness, steps)
