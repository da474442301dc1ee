#!/usr/bin/env python3
"""The repo's benchmark: end-to-end and per-layer metrics on four workloads.

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace 0|1] [--quick] [--out FILE]

One invocation measures one workload in this process (without
``--workload``: all four, one fresh child process after another, never two
at once).  A run is: import ``repro`` from the checkout's ``src/``, build
the seeded inputs, one warm-up repetition of the workload's fixed op list,
then repetitions for ``--seconds`` seconds.  Every op's output is checked.
It prints each metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--out FILE`` appends the whole run (samples, host and
noise record, exact counts) for ``perf/compare.py``.

See ``perf/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_START = time.perf_counter()
PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"
#: fresh interpreters timed for the import + input-building part of setup_s
SETUP_PROBES = 3
#: a median needs three samples: no run times fewer repetitions (``--quick``
#: and the traced run excepted), however long one takes
MIN_REPETITIONS = 3
#: ``host_speed_sample()`` seconds on this sandbox when no neighbour is busy:
#: host times are reported as if the host always ran at this speed
REFERENCE_SPEED_SAMPLE_S = 0.0019


def _bootstrap() -> dict:
    """Measure the checkout this file sits in, never an installed repro;
    returns the parsed ``BENCHMARK.json``."""
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"perf/run.py: {ROOT} holds no src/repro and BENCHMARK.json to measure")
    # the script directory would shadow the stdlib ``trace`` with perf/trace.py
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- host and noise record -----------------------------------------------------------

def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def _host_record(load_start: float) -> dict:
    import numpy

    nproc = os.cpu_count() or 1
    load_end = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "noisy": max(load_start, load_end) > nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


# -- one workload, in this process ---------------------------------------------------

def _repetition(workload, rec, traced: bool):
    rec.tracer.enabled = traced
    rec.begin_rep()
    workload.repetition(rec)
    return rec.end_rep()


def _probe_setup(args) -> list[float]:
    """Wall-clock of fresh interpreters that import and build inputs."""
    command = [
        sys.executable, str(PERF / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    seconds = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=120)
        seconds.append(time.perf_counter() - start)
    return seconds


def host_slowdown(rep) -> float:
    """How much slower than the reference the host ran during *rep*."""
    return statistics.median(rep.speed_samples) / REFERENCE_SPEED_SAMPLE_S


def _end_to_end(workload, reps, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    slowdown = [host_slowdown(rep) for rep in reps]
    parts = {
        name: statistics.median([
            rep.parts[name] / slow
            for rep, slow in zip(reps, slowdown) if name in rep.parts
        ])
        for name in reps[0].parts
    }
    latencies = [
        statistics.median([
            rep.ops[op][0] / slow
            for rep, slow in zip(reps, slowdown) if op in rep.ops
        ])
        for op in reps[0].ops
    ]
    wall_s = sum(parts.values())
    nops = len(latencies)
    if hasattr(workload, "jobs_per_s"):
        cold, hot = workload.jobs_per_s(parts)
    else:  # no cache tier in the path: every op is a cold job
        cold = hot = nops / wall_s
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
        "cold_jobs_per_s": cold,
        "hot_jobs_per_s": hot,
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(rec, traced_reps) -> dict[str, float]:
    """Exact counts of the first traced repetition (any later one that
    differs fails the run), median span seconds at reference host speed,
    and the derived ratios."""
    from perf.trace import empty_span_seconds

    counts = traced_reps[0].counts
    for rep in traced_reps[1:]:
        if rep.counts != counts:
            rec.attempted += 1
            rec.failed += 1
            changed = sorted(
                k for k in counts.keys() | rep.counts.keys()
                if counts.get(k) != rep.counts.get(k)
            )
            rec.failures.append(f"exact counts changed between repetitions: {changed}")
    span_samples: dict[str, list[float]] = {}
    for rep in traced_reps:
        slow = host_slowdown(rep)
        for name, seconds in rec.tracer.totals(rep.first_span, rep.last_span).items():
            span_samples.setdefault(name, []).append(seconds / slow)
    out: dict[str, float] = dict(counts)
    out.update({
        name: statistics.median(values)
        for name, values in span_samples.items() if name.endswith("_s")
    })

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def get(name: str) -> float:
        return out.get(name, 0.0)

    out["sim.engine.events_per_instance"] = ratio(
        get("sim.engine.events"), get("tsu.dispatched"))
    out["exec.sims_per_cell"] = ratio(get("exec.sims"), get("exec.cells"))
    out["serve.executed_per_submitted"] = ratio(
        get("serve.executed"), get("serve.submitted"))
    out["serve.wire_bytes_per_job"] = ratio(
        get("serve.wire_bytes"), get("serve.submitted"))
    out["sim.host_us_per_event"] = 1e6 * ratio(
        get("platforms.execute_s") - get("apps.bodies_s"), get("sim.engine.events"))
    out["core.derive_s"] = get("core.build_derived_s") - get("core.build_declared_s")
    out["check.overhead_x"] = ratio(get("check.run_checked_s"), get("apps.bodies_s"))
    out["serve.hot_job_overhead_ms"] = 1e3 * ratio(
        get("serve.herd_phase_s"), get("serve.herd_jobs"))
    out["platforms.model_error_pct"] = traced_reps[0].notes.get("model_error_pct", 0.0)
    # tracing overhead: what the recorded spans cost, as a share of the
    # traced time of the calls the untraced run makes too
    spans = sum(rep.last_span - rep.first_span for rep in traced_reps)
    shared = sum(
        seconds - peel for rep in traced_reps for seconds, peel in rep.ops.values()
    )
    out["trace.overhead_pct"] = 100.0 * ratio(spans * empty_span_seconds(), shared)
    return out


def measure(args, spec: dict) -> int:
    load_start = os.getloadavg()[0]
    from perf.trace import Recorder, Tracer
    from perf.workloads import WORKLOADS

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.quick, ROOT, scratch)
        inputs_s = time.perf_counter() - _START
        if args.setup_only:
            return 0

        rec = Recorder(Tracer(enabled=False))
        warmup = _repetition(workload, rec, traced=False)
        traced = bool(args.trace)
        reps = []
        start = time.perf_counter()
        while not reps or (not args.quick and (
            time.perf_counter() - start < seconds
            or (not traced and len(reps) < MIN_REPETITIONS)
        )):
            reps.append(_repetition(workload, rec, traced))

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # pool worker
        probes = [inputs_s] if args.quick else _probe_setup(args)
        setup_s = statistics.median(probes) + warmup.wall_s / host_slowdown(warmup)

        units = {
            m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
        }
        if traced:
            values = _per_layer(rec, reps)
            metrics = {m["name"]: values.get(m["name"], 0.0) for m in spec["per_layer"]}
            trace_path = OUT / f"trace-{args.workload}.json"
            rec.tracer.write_chrome(str(trace_path))
            print(f"# chrome trace: {trace_path.relative_to(ROOT)}")
        else:
            metrics = _end_to_end(workload, reps, setup_s, usage / 1024.0)
        result = {
            "correct": rec.failed == 0,
            "attempted": rec.attempted,
            "failed": rec.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }

        fingerprints = json.dumps(sorted(
            (op, repr(fp)) for op, fp in rec.fingerprints.items()
        ))
        record = dict(
            result,
            workload=args.workload,
            seed=args.seed,
            trace=args.trace,
            quick=args.quick,
            seconds=seconds,
            repetitions=len(reps),
            ops=len(warmup.ops),
            failures=rec.failures,
            failed_share=rec.failed / rec.attempted,
            model_error_pct=warmup.notes.get("model_error_pct"),
            fingerprint=hashlib.sha256(fingerprints.encode()).hexdigest()[:16],
            setup_probes_s=probes,
            warmup_s=warmup.wall_s,
            host_slowdown=[host_slowdown(rep) for rep in reps],
            raw_wall_s=[sum(rep.parts.values()) for rep in reps],
            part_samples={
                name: [rep.parts[name] for rep in reps if name in rep.parts]
                for name in warmup.parts
            },
            per_op=(reps[0].notes if traced else {}),
            host=_host_record(load_start),
        )
        _print_run(record)
        if args.out:
            _append(args.out, record)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _print_run(record: dict) -> None:
    host = record["host"]
    print(
        f"# {record['workload']}: seed {record['seed']}, "
        f"{record['repetitions']} repetition(s) of {record['ops']} ops, "
        f"{record['failed']}/{record['attempted']} ops failed "
        f"(failed_share {record['failed_share']:.4f}), "
        f"load {host['loadavg_start']:.2f}->{host['loadavg_end']:.2f} on "
        f"{host['nproc']} cpus{' NOISY' if host['noisy'] else ''}"
    )
    if record["raw_wall_s"]:
        print(
            "#   measured repetition seconds "
            + " ".join(f"{s:.2f}" for s in record["raw_wall_s"])
            + "; host slowdown vs reference "
            + " ".join(f"{s:.2f}" for s in record["host_slowdown"])
        )
    for failure in record["failures"][:10]:
        print(f"#   FAILED {failure}")
    if record["model_error_pct"] is not None:
        print(f"  {'model_error_pct':36s} {record['model_error_pct']:14.4f} %")
    for name, metric in record["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")


def _append(path: str, record: dict) -> None:
    """Result files are ``{"runs": [...]}``, one entry per measured run."""
    target = Path(path)
    runs = json.loads(target.read_text())["runs"] if target.exists() else []
    runs.append(record)
    target.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def main() -> int:
    spec = _bootstrap()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="measure one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives op order, spec minting, the .ddm generator")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes, one repetition")
    parser.add_argument("--out", help="append this run to a result file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload:
        return measure(args, spec)
    worst = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, str(PERF / "run.py"), "--workload", name] + sys.argv[1:]
        )
        worst = max(worst, child.returncode)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
