"""The dynamic race detector end to end (repro.check).

Three layers of evidence:

* **cleanliness** — every shipped app (all seven builders, static and
  dynamic) and every ``examples/ddm`` program comes out of ``run_checked``
  with zero findings, while still computing its verified result;
* **detection** — seeded faults are caught: undeclared writes (with a
  usable ``writes(...)`` suggestion), unordered array writers, scalar
  races at per-name offsets, and the two ``tests/data`` CI fixtures
  through the real ``ddmcpp --check-races`` frontend (exit status 1);
* **property** — random access-annotated programs (the same generator
  shape as the deps-derivation suite): an injected out-of-footprint
  write is always reported as exactly one undeclared access, and on
  arc-free programs the dynamic race verdict agrees with the static
  ``check_deps`` missing-dependence verdict.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_benchmark
from repro.apps.common import ProblemSize
from repro.check import instrument, run_checked
from repro.core import ProgramBuilder, check_deps
from repro.core.dynamic import Subflow
from repro.preprocessor.backend import compile_to_program
from repro.preprocessor.cli import main as ddmcpp_main
from repro.sim.accesses import AccessSummary

DATA = Path(__file__).parent / "data"
EXAMPLES = Path(__file__).parent.parent / "examples" / "ddm"

#: Scaled-down sizes so the recorded sweep stays fast (same shape as the
#: deps-derivation suite; quad/qsort_rec run their real "small").
SIZES = {
    "trapez": ProblemSize("trapez", "S", "t", {"k": 12}),
    "mmult": ProblemSize("mmult", "S", "t", {"n": 32}),
    "fft": ProblemSize("fft", "S", "t", {"n": 32}),
    "qsort": ProblemSize("qsort", "S", "t", {"n": 2048}),
    "susan": ProblemSize("susan", "S", "t", {"w": 36, "h": 36}),
}


# -- every shipped app is clean ------------------------------------------------
@pytest.mark.parametrize(
    "bench_name", ["trapez", "mmult", "fft", "qsort", "susan", "quad", "qsort_rec"]
)
def test_apps_record_clean(bench_name):
    from repro.apps import problem_sizes

    bench = get_benchmark(bench_name)
    size = SIZES.get(bench_name) or problem_sizes(bench_name)["small"]
    prog = bench.build(size, unroll=2)
    session = instrument(prog)
    env = prog.run_sequential()
    report = session.report()
    assert report.ok, report.format()
    assert report.instances_recorded > 0
    assert report.ops_recorded > 0
    bench.verify(env, size)  # recording never changed what the app computed


@pytest.mark.parametrize(
    "example", sorted(EXAMPLES.glob("*.ddm")), ids=lambda p: p.stem
)
def test_examples_record_clean(example):
    report = run_checked(compile_to_program(example.read_text()))
    assert report.ok, report.format()


# -- seeded faults are caught --------------------------------------------------
def _setitem(name, index, value):
    def body(env, _ctx):
        env.array(name)[index] = value

    return body


def test_unordered_writers_race():
    b = ProgramBuilder("racy")
    b.env.alloc("a", 4)
    b.thread("w1", body=_setitem("a", slice(0, 2), 1.0))
    b.thread("w2", body=_setitem("a", slice(1, 3), 2.0))
    report = run_checked(b.build())
    (finding,) = report.findings
    assert finding.kind == "race"
    assert finding.access == "write/write"
    assert finding.intervals == ((8, 16),)  # only the overlapping element
    assert {n.split("[")[0] for n in finding.instances} == {"w1", "w2"}
    assert finding.suggestion == "writes(a[1 .. 2])"
    assert "race:" in report.format()


def test_arc_orders_the_same_writers_clean():
    b = ProgramBuilder("ordered")
    b.env.alloc("a", 4)
    t1 = b.thread("w1", body=_setitem("a", slice(0, 2), 1.0))
    t2 = b.thread("w2", body=_setitem("a", slice(1, 3), 2.0))
    b.depends(t1, t2)
    assert run_checked(b.build()).ok


def test_scalar_race_is_per_name():
    def setter(value):
        return lambda env, _ctx: env.set("s", value)

    b = ProgramBuilder("scalar-race")
    b.thread("s1", body=setter(1.0))
    b.thread("s2", body=setter(2.0))
    report = run_checked(b.build())
    (finding,) = report.findings
    assert finding.kind == "race"
    assert finding.region == "scalar 's'"
    assert finding.suggestion == ""  # no clause syntax for scalars
    assert "add an arc ordering them" in finding.describe()

    b = ProgramBuilder("scalar-clean")
    b.thread("s1", body=lambda env, _ctx: env.set("s", 1.0))
    b.thread("s2", body=lambda env, _ctx: env.set("t", 2.0))
    assert run_checked(b.build()).ok  # distinct names, distinct offsets


def test_undeclared_write_names_the_bytes():
    b = ProgramBuilder("undeclared")
    b.env.alloc("a", 4)
    reg = b.env.region("a")

    def body(env, _ctx):
        arr = env.array("a")
        arr[0] = 1.0
        arr[2] = 2.0  # not in the declaration

    b.thread(
        "t",
        body=body,
        accesses=lambda env, _ctx: AccessSummary().write(reg, offset=0, count=1),
    )
    report = run_checked(b.build())
    (finding,) = report.findings
    assert finding.kind == "undeclared"
    assert finding.access == "write"
    assert finding.intervals == ((16, 24),)
    assert finding.suggestion == "writes(a[2 .. 3])"


def test_opaque_templates_are_noted_not_judged():
    b = ProgramBuilder("opaque")
    b.env.alloc("a", 2)
    b.thread("t", body=_setitem("a", 0, 1.0))  # no accesses= declaration
    report = run_checked(b.build())
    assert report.ok
    assert report.opaque_templates == ["t"]
    assert "not judged" in report.format()


# -- subflow epochs: spawn edges order, siblings race --------------------------
def test_spawn_edge_orders_parent_before_children():
    b = ProgramBuilder("spawny")
    b.env.alloc("a", 2)

    def parent(env, _ctx):
        env.array("a")[0] = 1.0
        sf = Subflow("kids")
        sf.thread(
            "kid",
            body=lambda env, _ctx: env.array("a").__setitem__(
                1, env.array("a")[0] + 1.0
            ),
        )
        return sf

    b.thread("parent", body=parent)
    report = run_checked(b.build())
    assert report.ok, report.format()


def test_sibling_subflow_writers_race():
    b = ProgramBuilder("siblings")
    b.env.alloc("a", 2)

    def parent(env, _ctx):
        sf = Subflow("kids")
        sf.thread("k1", body=_setitem("a", 0, 1.0))
        sf.thread("k2", body=_setitem("a", 0, 2.0))
        return sf

    b.thread("parent", body=parent)
    report = run_checked(b.build())
    (finding,) = report.findings
    assert finding.kind == "race"
    assert {n.split("[")[0] for n in finding.instances} == {"k1", "k2"}


# -- the CI fixtures through the real frontend ---------------------------------
def test_fixture_undeclared_write_exits_nonzero(capsys):
    assert ddmcpp_main([str(DATA / "undeclared_write.ddm"), "--check-races"]) == 1
    out = capsys.readouterr().out
    assert "undeclared write" in out
    assert "writes(b[" in out  # suggests the clause to add


def test_fixture_racy_writers_exits_nonzero(capsys):
    assert ddmcpp_main([str(DATA / "racy_writers.ddm"), "--check-races"]) == 1
    out = capsys.readouterr().out
    assert "race:" in out
    assert "write/write" in out


def test_both_audits_compose_in_one_invocation(capsys):
    # The README shows --check-deps --check-races together: the static
    # audit is clean here, the dynamic one fails, the exit code is 1.
    rc = ddmcpp_main(
        [str(DATA / "undeclared_write.ddm"), "--check-deps", "--check-races"]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "deps:" in out
    assert "undeclared write" in out


def test_fixtures_pass_plain_ddmcpp(capsys):
    # The faults are dynamic: both fixtures are valid DDM programs.
    for name in ("undeclared_write.ddm", "racy_writers.ddm"):
        assert ddmcpp_main([str(DATA / name), "--run"]) == 0
    capsys.readouterr()


# -- property: fault injection over random annotated programs ------------------
def _draw_specs(data):
    slot = st.integers(0, 7)
    ntmpl = data.draw(st.integers(2, 5), label="ntemplates")
    return [
        (
            sorted(data.draw(st.sets(slot, max_size=3), label=f"reads{t}")),
            sorted(data.draw(st.sets(slot, max_size=3), label=f"writes{t}")),
        )
        for t in range(ntmpl)
    ]


def _build_random(specs, auto, inject_into=None):
    """One random annotated program (9 slots; slot 8 is never declared,
    so an injected write to it is out of every footprint)."""
    b = ProgramBuilder("prop")
    b.env.alloc("a", 9)
    reg = b.env.region("a")

    def make(reads, writes, stamp, inject):
        def body(env, _ctx):
            arr = env.array("a")
            acc = sum(float(arr[i]) for i in reads)
            for i in writes:
                arr[i] = arr[i] * 2.0 + acc + stamp
            if inject:
                arr[8] = stamp

        def accesses(env, _ctx):
            s = AccessSummary()
            for i in reads:
                s.read(reg, offset=i * 8, count=1)
            for i in writes:
                s.write(reg, offset=i * 8, count=1)
            return s

        return body, accesses

    for t, (reads, writes) in enumerate(specs):
        body, accesses = make(reads, writes, t + 1, inject=(t == inject_into))
        b.thread(f"t{t}", body=body, accesses=accesses)
    if auto:
        b.auto_depends()
    return b.build()


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_injected_undeclared_write_always_caught(data):
    """With derived arcs the program is race-free; the one write outside
    every declared footprint must be the single finding."""
    specs = _draw_specs(data)
    victim = data.draw(st.integers(0, len(specs) - 1), label="victim")
    report = run_checked(_build_random(specs, auto=True, inject_into=victim))
    (finding,) = report.findings
    assert finding.kind == "undeclared"
    assert finding.access == "write"
    assert finding.instances[0].startswith(f"t{victim}[")
    assert finding.intervals == ((64, 72),)
    assert finding.suggestion == "writes(a[8 .. 9])"


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_dynamic_verdict_matches_static_on_arcfree_programs(data):
    """On a program with no arcs every instance pair is concurrent, so
    the two checkers judge the same conflicts: races exist exactly when
    ``check_deps`` finds missing dependences, every statically missing
    pair is also reported as a race, and every extra dynamic pair is a
    true declared-footprint conflict (the static deriver coalesces
    write-after-write chains through intervening readers; the dynamic
    sweep keeps the last writer as well)."""
    specs = _draw_specs(data)
    static = check_deps(_build_random(specs, auto=False))
    missing = {
        frozenset((dep.producer, dep.consumer)) for dep in static.missing
    }
    report = run_checked(_build_random(specs, auto=False))
    assert not report.undeclared
    race_pairs = {
        frozenset(name.split("[")[0] for name in f.instances)
        for f in report.races
    }
    assert missing <= race_pairs
    assert bool(race_pairs) == bool(missing)
    footprint = {
        f"t{t}": (set(reads), set(writes))
        for t, (reads, writes) in enumerate(specs)
    }
    for pair in race_pairs:
        a, b = sorted(pair)
        ra, wa = footprint[a]
        rb, wb = footprint[b]
        assert (wa & (rb | wb)) or (wb & (ra | wa)), (a, b)


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_derived_programs_always_record_clean(data):
    """auto_depends orders every conflict: the dynamic detector must
    agree (its happens-before is the same expanded-graph edge set)."""
    specs = _draw_specs(data)
    report = run_checked(_build_random(specs, auto=True))
    assert report.ok, report.format()
