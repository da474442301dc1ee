"""Smoke tests of the benchmark harness (``python -m pytest perf/tests -q``).

They drive ``perf/run.py --quick`` the way the driver drives the full
benchmark, and the harness pieces directly where a failure has to be
injected.  Not part of the tier-1 suite: they take about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import compare  # noqa: E402
from perf.trace import Recorder, Tracer  # noqa: E402
from perf.workloads import WORKLOADS, diagnose_fixture, synthetic_ddm  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_quick(workload: str, trace: int, seed: int, out: Path) -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--quick",
         "--workload", workload, "--trace", str(trace), "--seed", str(seed),
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Every workload, untraced and traced, twice on seed 0."""
    tmp = tmp_path_factory.mktemp("perf")
    files = [tmp / "a.json", tmp / "b.json"]
    printed = {
        (name, trace): run_quick(name, trace, 0, files[0])
        for name in NAMES for trace in (0, 1)
    }
    for name in NAMES:
        for trace in (0, 1):
            run_quick(name, trace, 0, files[1])
    return printed, files


def test_workloads_are_the_four_named():
    assert NAMES == ["paper_grid", "fine_grain", "toolchain_check", "serve_mix"]
    assert sorted(WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(quick_runs, workload, trace, group):
    stdout, result = quick_runs[0][workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in stdout.splitlines()
        ), f"{name} not printed with unit {unit}"
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_one_seed_repeats_exactly(quick_runs):
    """Same seed, two runs: every fingerprint and exact count is equal."""
    _, (a, b) = quick_runs
    side_a = compare.Side(compare.load(str(a)))
    side_b = compare.Side(compare.load(str(b)))
    mine, theirs = side_a.deterministic(), side_b.deterministic()
    assert mine.keys() == theirs.keys() and len(mine) > 100
    assert all(len(v) == 1 for v in mine.values())
    assert mine == theirs
    toolchain = mine["toolchain_check", 0, "core.instances"]
    assert toolchain and min(toolchain) > 0
    assert mine["toolchain_check", 0, "sim.engine.events"] == {0.0}
    (error,) = mine["paper_grid", 0, "platforms.model_error_pct"]
    assert error > 0


def test_another_seed_changes_order_and_specs(tmp_path):
    def inputs(seed: int):
        made = {n: WORKLOADS[n](seed, True, ROOT, tmp_path) for n in NAMES}
        return (
            [op for op, _, _ in made["paper_grid"].cells],
            [op for op, _, _ in made["fine_grain"].ops],
            [source.text for source in made["toolchain_check"].sources],
            made["serve_mix"].cold,
        )

    assert inputs(0) == inputs(0)
    for same_seed, other_seed in zip(inputs(0), inputs(1)):
        assert same_seed != other_seed
    # the same ops whatever the seed: only their order may differ
    assert sorted(inputs(0)[0]) == sorted(inputs(1)[0])
    assert sorted(inputs(0)[1]) == sorted(inputs(1)[1])


def test_synthetic_sources_know_their_output():
    sources = synthetic_ddm(3, 6)
    assert [s.text for s in sources] == [s.text for s in synthetic_ddm(3, 6)]
    assert all(s.expected for s in sources)


def test_a_bad_outcome_raises_failed_share():
    rec = Recorder(Tracer(enabled=False))
    for cycles in (100, 100, 101):  # third repetition: the result changed
        rec.begin_rep()
        with rec.op("fake.sim") as op:
            op.fingerprint = (cycles,)
        rec.end_rep()
    assert (rec.attempted, rec.failed) == (3, 1)
    rec.begin_rep()
    with rec.op("fake.crash"):
        raise RuntimeError("injected")
    rep = rec.end_rep()
    assert (rec.attempted, rec.failed) == (4, 2)
    assert rec.failed / rec.attempted == 0.5
    assert "fake.crash" in rep.ops and "injected" in rec.failures[-1]


def test_a_seeded_bug_reported_clean_is_a_failure():
    clean = (ROOT / "examples" / "ddm" / "derived_reduction.ddm").read_text()
    racy = (ROOT / "tests" / "data" / "racy_writers.ddm").read_text()
    rec = Recorder(Tracer(enabled=False))
    rec.begin_rep()
    diagnose_fixture(rec, "racy_writers", racy, "race")
    assert rec.failed == 0
    diagnose_fixture(rec, "not_racy", clean, "race")
    diagnose_fixture(rec, "not_redundant", clean, "redundant")
    assert (rec.attempted, rec.failed) == (3, 2)


def test_compare_flags_a_regression(quick_runs, tmp_path, capsys):
    _, (a, _) = quick_runs
    assert compare.main(["compare.py", str(a), str(a)]) == 0
    assert "regressed" not in capsys.readouterr().out
    slow = json.loads(a.read_text())
    for run in slow["runs"]:
        if run["workload"] == "fine_grain" and not run["trace"]:
            run["metrics"]["wall_s"]["value"] *= 3
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(slow))
    assert compare.main(["compare.py", str(a), str(worse)]) == 1
    out = capsys.readouterr().out
    assert any("wall_s" in line and "regressed" in line for line in out.splitlines())
    noisy = json.loads(a.read_text())
    for run in noisy["runs"]:
        run["host"]["noisy"] = True
    loaded = tmp_path / "noisy.json"
    loaded.write_text(json.dumps(noisy))
    assert compare.main(["compare.py", str(loaded), str(worse)]) == 0
    assert "unresolved" in capsys.readouterr().out
