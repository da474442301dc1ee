#!/usr/bin/env python
"""Which ``src/repro`` functions, parameter values and branches does CI's traffic use?

Runs every command CI runs outside tier-1 (the paper claims, the
regenerated record, full-size traced ``perf/run.py`` on the four
workloads, the serve smoke, the deps/race checks, the examples and one
``tflux-run`` smoke per flag group) with a line tracer installed in
each process, and prints per package:

* ``dead``: a function no entry calls whose name no ``Name``/``Attribute``
  in ``src/`` mentions outside its own definition (a dunder counts as
  named: ``len``, ``in`` and ``+=`` call it without naming it);
* ``unexercised``: a function no entry calls that ``src/`` does name (an
  error path, a Protocol stub), or a never-executed block of a called
  function that is an ``except`` body or ends in ``raise``/``assert``
  (with the ``if`` guarding it, when that ``if`` has no ``else``) —
  printed, never fatal;
* ``knob``: a literal-default parameter of a called function that no
  entry passes off its default;
* ``branch``: any other never-executed block of a called function — a
  maximal run of statements in its body, not counting the docstring,
  ``global``/``nonlocal`` and nested ``def``s (judged as functions).

Exits 1 on a dead function, a knob or a branch not on ``ALLOW``, on a
stale ``ALLOW`` entry, or when an entry command exits with the wrong
code.  A new ``src/`` function, parameter or branch needs a caller here
or an ``ALLOW`` entry with its reason.  No options::

    python tools/reach.py

``ALLOW`` keys are ``path::Qualname`` (a function, and every branch in
it: oracles and parsers of outside input only), ``path::Qualname(param=)``
(a knob) and ``path::Qualname:<first line of the block, stripped>`` (one
branch; survives line shifts).

The hook is a generated ``sitecustomize.py`` on ``PYTHONPATH``:
``sys.settrace``/``threading.settrace`` see each ``call`` of a code
object under ``src/repro``, record its ``(file, co_firstlineno,
co_name)``, read ``f_locals`` at a function's first ``RESUME`` (not a
generator's later ones) for its literal defaults, and return a local
tracer that records each ``line``.  Once every line of a code object's
``co_lines()`` (bar its ``RESUME`` line) has been seen, its frames stop
tracing lines.  Each process dumps at ``atexit``; a forked
``multiprocessing`` child leaves through ``os._exit``, so it re-arms
with ``multiprocessing.util.register_after_fork`` and dumps from a
``Finalize``.
"""

from __future__ import annotations

import ast
import os
import pickle
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
BENCHES = ("trapez", "mmult", "fft", "qsort", "susan", "qsort_rec", "quad")
DDM_EXAMPLES = [
    *sorted(str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "examples" / "ddm").glob("*.ddm")),
    "examples/unrolled_loop.ddm",  # outside ddm/: perf's toolchain_check globs that one
]
PY_EXAMPLES = sorted(str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "examples").glob("*.py"))
RUN = ["python", "-m", "repro.cli"]
DDMCPP = ["python", "-m", "repro.preprocessor.cli"]
CACHE = ["python", "-m", "repro.exec.cachecli", "--dir", "{tmp}/cache"]

#: ``(argv, expected exit code)``, run in order from the repository root;
#: ``python`` is this interpreter and ``{tmp}`` a temporary directory.
ENTRIES: list[tuple[list[str], int]] = [
    # paper-claims: the 81 claims and the regenerated record
    (["python", "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"], 0),
    (["python", "-m", "repro.analysis.experiments", "{tmp}/EXPERIMENTS.md"], 0),
    # the benchmark at full size, traced, one repetition each
    *(
        (["python", "perf/run.py", "--workload", w, "--trace", "1", "--seconds", "0"], 0)
        for w in ("paper_grid", "fine_grain", "toolchain_check", "serve_mix")
    ),
    # serve-smoke and tier-1's schema governance step
    (["python", "tools/serve_smoke.py"], 0),
    (["python", "tools/check_record_schema.py"], 0),
    # deps-check
    *((DDMCPP + [f, "--check-deps"], 0) for f in DDM_EXAMPLES),
    (DDMCPP + ["tests/data/redundant_arc.ddm", "--check-deps"], 0),
    (DDMCPP + ["tests/data/missing_arc.ddm", "--check-deps"], 1),
    *((RUN + [b, "--check-deps"], 0) for b in BENCHES),
    # race-check: clean examples, caught fixtures, clean benchmarks
    *((DDMCPP + [f, "--check-races"], 0) for f in DDM_EXAMPLES),
    (DDMCPP + ["tests/data/undeclared_write.ddm", "--check-races"], 1),
    (DDMCPP + ["tests/data/racy_writers.ddm", "--check-races"], 1),
    *((RUN + [b, "--check-races", "--unroll", "2"], 0) for b in BENCHES),
    # examples-smoke: every example, the loop example on 4 kernels and
    # sequentially, and the recursive QSORT on soft and dist
    *((["python", f], 0) for f in PY_EXAMPLES),
    (DDMCPP + ["examples/unrolled_loop.ddm", "--run", "--kernels", "4"], 0),
    (DDMCPP + ["examples/unrolled_loop.ddm", "--run"], 0),
    (RUN + ["qsort_rec", "--platform", "soft", "--kernels", "4", "--size", "small", "--unroll", "8"], 0),
    (RUN + ["qsort_rec", "--platform", "dist", "--nodes", "2", "--size", "small", "--unroll", "8"], 0),
    # one tflux-run smoke per flag group (`trapez --kernels 4` sweeps the default unrolls)
    *(
        (RUN + ["mmult", "--platform", p, "--kernels", "4", "--size", "small", "--unroll", "4"], 0)
        for p in ("hard", "soft", "cell", "dist")
    ),
    (RUN + ["trapez", "--size", "small", "--kernels", "4"], 0),
    (RUN + ["trapez", "--platform", "hard", "--sweep", "--jobs", "2", "--size", "small", "--unroll", "2"], 0),
    (RUN + ["trapez", "--platform", "dist", "--sweep", "--size", "small", "--unroll", "2"], 0),
    (RUN + ["fft", "--platform", "soft", "--size", "small", "--unroll", "auto", "--cache-dir", "{tmp}/cache"], 0),
    (RUN + ["susan", "--size", "small", "--unroll", "4", "--check-native"], 0),
    (RUN + ["quad", "--size", "small", "--unroll", "4", "--trace-out", "{tmp}/trace.json"], 0),
    (RUN + ["qsort", "--platform", "dist", "--nodes", "4", "--topology", "fattree",
            "--cluster", "2", "--size", "small", "--unroll", "4"], 0),
    # tflux-cache over what the auto-unroll run stored, and ddmcpp's own run
    (CACHE + ["stats"], 0),
    (CACHE + ["stats", "--json"], 0),
    (CACHE + ["prune", "--max-mb", "64", "--json"], 0),
    (CACHE + ["prune", "--max-bytes", "1", "--max-age-days", "30"], 0),
    (DDMCPP + ["examples/ddm/derived_pipeline.ddm", "-o", "{tmp}/gen.py", "--run", "--kernels", "3"], 0),
]

#: What no CI command reaches and still stays, keyed ``path::Qualname``
#: (a function, and every branch in it), ``path::Qualname(param=)`` (a
#: knob) or ``path::Qualname:<first line of the block, stripped>`` (one
#: branch), with the reason.  The one list of kept oracles; the other
#: entries are the CLI ``argv`` seam, server addresses, and branches
#: that handle outside input (user programs and ``.ddm`` source, CLI and
#: wire arguments, misbehaving clients), faults and synchronisation.
ALLOW: dict[str, str] = {
    # structural oracles the property suites assert after every step
    "core/block.py::DDMBlock.check_invariants":
        "test_core_blocks_program checks every split block against it",
    "core/graph.py::ExpandedGraph.check_invariants":
        "test_core_graph checks every expansion's Ready Counts against its arcs",
    "tsu/group.py::TSUGroup.check_invariants":
        "test_tsu checks the SMs against the loaded block as the TSU runs",
    "sim/cache.py::CoherentMemorySystem.check_invariants":
        "test_cache checks the exact model's MESI directory after each access",
    # the fast memory model against itself and the exact model
    "sim/fastcache.py::FastMemorySystem._settled":
        "test_fastcache compares the fast paths' state through this non-destructive view",
    "sim/fastcache.py::FastMemorySystem.__init__(directory_words=)":
        "test_fastcache/test_directory_width pin the sharer directory width",
    "platforms/base.py::Platform.sequential_baseline(exact_memory=)":
        "the exact cache model, the fast model's oracle (JobSpec.exact_memory)",
    "runtime/simdriver.py::run_sequential_timed(exact_memory=)":
        "the exact cache model, the fast model's oracle (JobSpec.exact_memory)",
    # degenerate twins and cross-backend differentials
    "net/message.py::NetParams.zero_cost":
        "test_dist_differential holds one-node TFluxDist on a free network to TFluxSoft",
    "runtime/native.py::NativeRuntime.__init__(tsu_capacity=)":
        "test_backend_differential runs all three backends on the same block split",
    "runtime/native.py::NativeRuntime.__init__(tracer=)":
        "test_backend_differential compares the native span stream with the others",
    "runtime/simdriver.py::run_sequential_timed(tracer=)":
        "test_backend_differential compares the sequential span stream with the others",
    "platforms/base.py::Platform.sequential_baseline(tracer=)":
        "test_obs holds the baseline's gap-free span timeline to its cycles",
    # in-process CLI tests compare exit codes and output
    "cli.py::main(argv=)": "tests drive tflux-run in-process",
    "preprocessor/cli.py::main(argv=)": "tests drive ddmcpp in-process",
    "exec/cachecli.py::main(argv=)": "tests drive tflux-cache in-process",
    # deployment settings stay configurable; tests bind ephemeral ones
    "serve/server.py::TFluxServer.start(host=)": "tflux-serve --host",
    "serve/server.py::TFluxServer.start(port=)": "tflux-serve --port",
    "serve/server.py::TFluxServer.start(unix=)": "tflux-serve --unix",
    "serve/server.py::serve_in_thread(unix=)":
        "test_serve_server drives the unix-socket transport in-process",
    # the exact cache model: the fast model's oracle (every branch)
    "sim/cache.py::CacheLevel.insert": "exact model, the fast model's oracle",
    "sim/cache.py::CoherentMemorySystem.__init__": "exact model, the fast model's oracle",
    "sim/cache.py::CoherentMemorySystem._install": "exact model, the fast model's oracle",
    "sim/cache.py::CoherentMemorySystem._l2_fill": "exact model, the fast model's oracle",
    "sim/cache.py::CoherentMemorySystem._access_line": "exact model, the fast model's oracle",
    "sim/cache.py::CoherentMemorySystem._invalidate_others": "exact model, the fast model's oracle",
    # the fast model's multi-word sharer directory: directory_words and
    # machines past 64 cores (test_fastcache, test_directory_width)
    "sim/fastcache.py::FastMemorySystem.__init__:if directory_words < nwords:":
        "an explicit directory_words (test_directory_width pins the width)",
    "sim/fastcache.py::FastMemorySystem._sweep:pres = rs.presence[sel]":
        "two-level directory read path, machines past 64 cores",
    "sim/fastcache.py::FastMemorySystem._sweep:pres_union = int(np.bitwise_or.reduce(rs.presence[sel]))":
        "two-level directory write path, machines past 64 cores",
    "sim/fastcache.py::FastMemorySystem._sweep_lines:presence[line] = presence.item(line) | 1 << word":
        "two-level directory presence bit, machines past 64 cores",
    # DDMCPP: the C subset and pragmas of user .ddm input (every branch)
    "preprocessor/lexer.py::tokenize": "C subset of user .ddm input",
    "preprocessor/parser.py::Parser.statement": "C subset of user .ddm input",
    "preprocessor/parser.py::Parser.for_statement": "C subset of user .ddm input",
    "preprocessor/parser.py::Parser.ternary": "C subset of user .ddm input",
    "preprocessor/parser.py::Parser.postfix": "C subset of user .ddm input",
    "preprocessor/cgen.py::CodeGenerator.gen_block": "C subset of user .ddm input",
    "preprocessor/cgen.py::CodeGenerator.gen_stmt": "C subset of user .ddm input",
    "preprocessor/cgen.py::CodeGenerator._canonical_range": "C subset of user .ddm input",
    "preprocessor/cgen.py::CodeGenerator.gen_for": "C subset of user .ddm input",
    "preprocessor/cgen.py::CodeGenerator.expr": "C subset of user .ddm input",
    "preprocessor/shim.py::cdiv": "C integer division for user .ddm bodies",
    "preprocessor/shim.py::cmod": "C remainder for user .ddm bodies",
    "preprocessor/directives.py::_scan_clauses:pos = start + len(needle)  # part of a longer identifier":
        "a clause name inside a longer identifier in user .ddm input",
    r'preprocessor/directives.py::split_directives:bm = re.match(r"block\s+(\d+)", rest)':
        "#pragma ddm block in user .ddm input",
    "preprocessor/directives.py::split_directives:current_block = None":
        "#pragma ddm endblock in user .ddm input",
    "preprocessor/directives.py::split_directives:p.epilogue, p.epilogue_line = text, body_start":
        "#pragma ddm epilogue in user .ddm input",
    "preprocessor/backend.py::_gen_body_function:lines.append(\"    pass\")":
        "an empty thread body in user .ddm input",
    "preprocessor/backend.py::_gen_loop_thread_function:lo = _const_int(loop.init.names[0][1], \"loop start\")":
        "a declaring for-init in a user loop thread",
    "preprocessor/backend.py::_gen_loop_thread_function:hi += 1":
        "an inclusive bound in a user loop thread",
    "preprocessor/backend.py::_gen_loop_thread_function:step = _const_int(loop.update.value, \"loop step\")":
        "a += step in a user loop thread",
    "preprocessor/backend.py::_outcome_plumbing:returns = \"DDMSPAWN() if DDMSPAWN is not None else None\"":
        "DDMSPAWN in a user thread body",
    "preprocessor/backend.py::_outcome_plumbing:returns = \"DDMCHOICE\"":
        "DDMCHOICE (conditional arcs) in a user thread body",
    "preprocessor/backend.py::emit_module:parts.append(\"\")":
        "shared scalars declared in user .ddm input",
    "preprocessor/backend.py::emit_module:parts.append('    b.epilogue(\"epilogue\", body=_epilogue)')":
        "#pragma ddm epilogue in user .ddm input",
    "preprocessor/cli.py::main:print(\"shared scalars:\", scalars)":
        "ddmcpp --run on a program with shared scalars",
    # CLI usage errors and options
    "cli.py::main:import sys": "tflux-run usage error: a bad --unroll",
    "cli.py::main:parser.error(\"--nodes is only meaningful with --platform dist\")": "tflux-run usage error",
    "cli.py::main:parser.error(\"--cluster is only meaningful with --platform dist\")": "tflux-run usage error",
    "cli.py::main:parser.error(\"--topology is only meaningful with --platform dist\")": "tflux-run usage error",
    "exec/cachecli.py::_cache:print(": "tflux-cache usage error: no cache directory",
    "exec/cachecli.py::main:return 2": "tflux-cache usage error: no cache directory",
    "exec/cachecli.py::main:print(\"tflux-cache: error: prune needs --max-bytes/--max-mb and/or \"":
        "tflux-cache usage error: prune with no bound",
    "serve/cli.py::main:print(\"usage: python -m repro.serve.cli {serve,submit} [options]\",":
        "tflux-serve usage error",
    "serve/cli.py::main_serve:os.environ[ENV_CACHE_DIR] = os.path.expanduser(args.cache_dir)":
        "tflux-serve --cache-dir",
    "serve/cli.py::_address:return args.unix": "tflux-serve/tflux-submit --unix",
    "serve/client.py::ServeClient.__init__:self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)":
        "tflux-submit --unix",
    "serve/server.py::TFluxServer.start:self._server = await asyncio.start_unix_server(":
        "tflux-serve --unix",
    "exec/pool.py::job_count:return os.cpu_count() or 1": "TFLUX_JOBS=auto",
    # the server's replies to clients that misbehave, overload it or go away
    "serve/server.py::TFluxServer._admit:conn.send(": "error reply: a submit without a jobs list",
    "serve/server.py::TFluxServer._admit:self.counters.inc(\"serve.rejected\", len(resolved))":
        "overloaded reply: the queue bounds refuse a batch",
    "serve/server.py::TFluxServer._handle_client:conn.send(": "error reply: an unknown message type",
    "serve/server.py::TFluxServer._pump:self.counters.inc(\"serve.client_aborts\")":
        "a client that disconnects mid-batch",
    "serve/server.py::TFluxServer._deliver:batch.conn.send(": "job_error reply: a job that raised",
    "serve/server.py::TFluxServer.aclose:task.cancel()": "shutdown with clients connected",
    "serve/server.py::ServerHandle.stop:return  # already stopped": "a second stop() is a no-op",
    "serve/scheduler.py::FairScheduler.submit:return False": "the queue bounds refuse a job",
    "serve/client.py::ServeClient.submit:continue  # stale stream from a previous batch":
        "a stream left over from an abandoned batch",
    "serve/client.py::ServeClient.submit:result.status = \"overloaded\"": "the server's overloaded reply",
    "serve/client.py::ServeClient.submit:result.errors[message[\"index\"]] = tuple(message[\"error\"])":
        "the server's job_error reply",
    "serve/cli.py::main_submit:print(f\"tflux-submit: server overloaded ({batch.message}); retry later\",":
        "the server's overloaded reply",
    "serve/cli.py::main_submit:print(f\"tflux-submit: job {index} failed: {error[0]}: {error[1]}\",":
        "the server's job_error reply",
    "serve/protocol.py::_coerce:return None if value is None else int(value)":
        "a wire tsu_capacity (None-default field)",
    "exec/cache.py::ResultCache.get:self.misses += 1": "a cache entry from another schema version",
    "exec/cache.py::describe:return repr(obj)": "a platform attribute with no __dict__",
    # the engine protocol the sim/engine.py docstring documents (SimPy's)
    "sim/engine.py::Event.add_callback:self.engine._schedule(0.0, cb, self)":
        "a late waiter: yielding an event that has already triggered",
    "sim/engine.py::Event.add_callback:self._waiters.append(cb)": "a second waiter on one event",
    "sim/engine.py::Process._dispatch:target.done.add_callback(self._resume)":
        "yielding a Process waits for its return value",
    "sim/engine.py::Process._dispatch:exc = SimulationError(":
        "an unsupported yield is thrown into the process, which may recover",
    "sim/engine.py::Engine.all_of:combined.succeed([])": "all_of over no events triggers at once",
    # cost and memory models on inputs CI's sizes never produce
    "sim/accesses.py::_RangeOp.line_indices:return range(0)": "a zero-count access op",
    "sim/fastcache.py::FastMemorySystem.run_op:return 0": "a zero-count access op",
    "sim/accesses.py::RegionSpace.region:if existing.size != size:":
        "declaring a region twice (a whole-array reassignment)",
    "sim/fastcache.py::FastMemorySystem._region_state:reg = self.regions.get(name)":
        "a region a DThread body declares mid-run (a new env array)",
    "core/regions.py::LineTable.row:row = self.add(region)":
        "a region a DThread body declares mid-run (a new env array)",
    "sim/fastcache.py::FastMemorySystem.__init__:l2_groups = list(range(ncores))":
        "private L2s, the exact model's default too (CoherentMemorySystem)",
    "sim/fastcache.py::FastMemorySystem._sweep:full, burst = n_mem, 0":
        "a strided sweep of more than eight lines missing to DRAM",
    "sim/fastcache.py::FastMemorySystem._sweep_lines:self._settle(rs)":
        "a short write after a re-streamed range left pending ramps",
    "cell/dma.py::DMAEngine.transfer_cycles:return 0": "a zero-byte DMA transfer",
    "cell/commandbuffer.py::CommandBuffer.try_write:self.stalls += 1": "a full SPE command buffer",
    "cell/adapter.py::CellTSUAdapter._write_command:yield self.costs.command_retry_cycles":
        "a full SPE command buffer",
    "cell/adapter.py::CellTSUAdapter._retry_parked:continue": "a parked fetch that still has to wait",
    "cell/adapter.py::CellTSUAdapter._ppe_proc:self._retry_parked()": "parked fetches at shutdown",
    "net/fabric.py::Network.pull:continue": "a zero-byte pull from one source",
    "net/fabric.py::Network.pull:return 0": "a pull with nothing to forward",
    "net/fabric.py::Network.pull:end = link_done": "a shared link slower than the RX port",
    "net/message.py::NetParams.serialize_cycles:return 0":
        "NetParams.zero_cost, test_dist_differential's free network",
    "net/topology.py::FatTree.control_path:return ()": "a control message a node sends itself",
    "tsu/group.py::TSUGroup._post_process:tokens = 1":
        "fault path: an over-retired run reaches the SM's underflow check",
    # synchronisation in the native (OS-thread) runtime
    "tsu/tub.py::ThreadUpdateBuffer.try_push:continue": "a TUB segment lock held by another thread",
    "tsu/tub.py::ThreadUpdateBuffer.try_push:return False, probes": "every TUB segment busy",
    "tsu/tub.py::ThreadUpdateBuffer.push:retries += 1": "every TUB segment busy",
    "runtime/native.py::NativeRuntime.wait:return": "work arriving between the check and the park",
    "runtime/core.py::kernel_loop:return": "a backend stopping its kernels (native error shutdown)",
    "runtime/native.py::NativeRuntime.run:section.run(env)": "a program with an epilogue, run natively",
    "runtime/core.py::blocking_step.step:yield": "never runs: it makes step a generator",
    # user programs, bodies and front-end calls (legal API, outside input)
    "core/context.py::normalize_context:if len(ctx) == 1:": "a user context given as a tuple",
    "core/dthread.py::DThreadTemplate.run:return None": "a DThread declared without a body",
    "core/environment.py::Environment.__setitem__:if name in self._arrays:":
        "a body reassigning a whole shared array",
    "core/block.py::_rebase:pieces.append(range(first - start, last + 1 - start))":
        "a run whose members are not contiguous within a block",
    "core/builder.py::ProgramBuilder.auto_depends:continue": "auto_depends over an already declared arc",
    "core/deps.py::ArcDiagnosis.describe:if self.status == \"opaque\":":
        "check_deps on an arc with an undeclared endpoint",
    "frontend/decorators.py::DDM._resolve:return ref.tid": "depends= given a template object",
    "frontend/decorators.py::DDM._resolve:return ref": "depends= given a template id",
    "frontend/decorators.py::DDM.thread.decorate:producer, mapping = spec, \"same\"":
        "depends= given a bare producer",
    "apps/qsort.py::_merge_runs:merged.append(work[-1])": "an odd run count (an unroll not a power of two)",
    "apps/quad.py::_quad.body:env.set(\"root_mode\", \"direct\")":
        "QUAD's root interval accepted outright (a coarse tolerance)",
    "apps/common.py::assert_allclose:np.testing.assert_allclose(actual, desired, rtol=rtol, atol=atol)":
        "verification failure: numpy's assertion raises with the diff",
    "analysis/experiments.py::_cmp_rows:continue": "a paper benchmark the measured grid lacks",
    "analysis/tables.py::render_bars:continue": "a grid cell that was not run (FigureGrid.get)",
    # the race checker on legal user bodies: the NumPy protocol arms
    "check/recording.py::_record_strided:return": "an empty array view",
    "check/recording.py::_record_strided:continue  # length-1 and broadcast dims revisit the same bytes":
        "a length-1 or broadcast view dimension",
    "check/recording.py::_record_strided:start += st * (n - 1)": "a reversed (negative-stride) view",
    "check/recording.py::RecordingArray._record_selection:if self._posgrid is None:":
        "fancy-index selection in a user body",
    "check/recording.py::RecordingArray.__array_ufunc__:raw_out = []": "a ufunc with out= in a user body",
    "check/recording.py::RecordingArray.__getattr__:self._record_whole(is_write=False)":
        "an in-place array method (sort, fill) in a user body",
    "check/recording.py::CheckedEnvironment.get:return self._wrap(name)": "env.get of an array in a user body",
    "check/recording.py::CheckedEnvironment.__setitem__:self._sink.record_span(":
        "a body reassigning a whole shared array",
    "check/recording.py::CheckedEnvironment.__setitem__:return  # adopted a brand-new array: allocation, not traffic":
        "a body creating a new array",
    "check/checker.py::_clause:return f\"{verb}({region})\"": "a suggested clause for a whole array",
    "check/checker.py::_region_label:names = _scalar_names_by_offset(env)": "a race on a shared scalar",
    "check/checker.py::_undeclared:continue": "a declared op on a region the run never touched",
    "check/instrument.py::CheckSession._wrap_template:return": "a bodyless DThread or one already wrapped",
    # observability on empty or drifted input
    "obs/probe.py::Tracer.makespan:return 0": "an empty tracer",
    "obs/probe.py::Tracer.critical_kernel:return None": "an empty tracer",
    "obs/probe.py::render_gantt:return \"(no spans recorded)\"": "an empty tracer",
    "obs/record.py::verify_schema_fixture:for name in sorted(set(golden_fields) | set(current)):":
        "check_record_schema's report of a drifted RunRecord schema",
    "obs/record.py::verify_schema_fixture:problems.append(":
        "check_record_schema's report of a stale golden fixture",
}


@dataclass
class Function:
    path: str  # relative to src/repro
    qualname: str
    name: str
    first: int  # co_firstlineno: the first decorator's line, else the def's
    last: int
    defaults: tuple[tuple[str, object], ...]  # literal-default parameters
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def site(self) -> tuple[str, int, str]:
        """What the hook records: ``(path, co_firstlineno, co_name)``."""
        return (self.path, self.first, self.name)


_LITERALS = (type(None), bool, int, float, complex, str, bytes, tuple)


def _literal_defaults(args: ast.arguments) -> tuple[tuple[str, object], ...]:
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    out = []
    for arg, node in pairs:
        try:
            value = ast.literal_eval(node)
        except (ValueError, TypeError, SyntaxError):
            continue
        if isinstance(value, _LITERALS):
            out.append((arg.arg, value))
    return tuple(out)


def universe() -> tuple[list[Function], dict[str, list[tuple[str, int]]], dict[str, list[str]]]:
    """Every ``def`` under ``src/repro`` (nested ones included), where
    each identifier appears as a ``Name`` or ``Attribute``, and each
    file's source lines."""
    functions: list[Function] = []
    mentions: dict[str, list[tuple[str, int]]] = defaultdict(list)
    sources: dict[str, list[str]] = {}
    for file in sorted(SRC.rglob("*.py")):
        path = str(file.relative_to(SRC))
        text = file.read_text()
        sources[path] = text.splitlines()
        tree = ast.parse(text, filename=str(file))

        def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions.append(Function(
                        path, ".".join(scope + (child.name,)), child.name,
                        first, child.end_lineno, _literal_defaults(child.args), child,
                    ))
                    visit(child, scope + (child.name,))
                elif isinstance(child, ast.ClassDef):
                    visit(child, scope + (child.name,))
                else:
                    if isinstance(child, ast.Name):
                        mentions[child.id].append((path, child.lineno))
                    elif isinstance(child, ast.Attribute):
                        mentions[child.attr].append((path, child.lineno))
                    visit(child, scope)

        visit(tree, ())
    return functions, mentions, sources


@dataclass(frozen=True)
class Block:
    """A maximal run of never-executed statements in a function body."""

    first: int
    last: int
    text: str  # the first line, stripped: the ALLOW key's last part
    verdict: str  # "branch" (fatal) or "unexercised"
    lines: int  # non-blank, non-comment source lines


_UNJUDGED = (ast.Global, ast.Nonlocal, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _ends_in_error(stmt: ast.stmt) -> bool:
    """``raise``/``assert``, or an ``if`` with no ``else`` guarding a list that ends in one."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    return isinstance(stmt, ast.If) and not stmt.orelse and _ends_in_error(stmt.body[-1])


def blocks(fn: ast.FunctionDef | ast.AsyncFunctionDef, executed: set[int],
           source: list[str]) -> list[Block]:
    """The never-executed blocks of a called function, given the line
    numbers its file executed.  A statement ran when any line it spans
    did; one on the ``def`` line itself ran with the call."""

    def ran(stmt: ast.stmt) -> bool:
        return stmt.lineno == fn.lineno or any(
            line in executed for line in range(stmt.lineno, stmt.end_lineno + 1)
        )

    def block(run: list[ast.stmt], handler: bool) -> Block:
        span = source[run[0].lineno - 1:run[-1].end_lineno]
        counted = sum(1 for line in span if line.strip() and not line.strip().startswith("#"))
        verdict = "unexercised" if handler or _ends_in_error(run[-1]) else "branch"
        return Block(run[0].lineno, run[-1].end_lineno, span[0].strip(), verdict, counted)

    found: list[Block] = []

    def walk(stmts: list[ast.stmt], handler: bool) -> None:
        run: list[ast.stmt] = []
        for stmt in stmts:
            if isinstance(stmt, _UNJUDGED):
                continue
            if not ran(stmt):
                run.append(stmt)
                continue
            if run:
                found.append(block(run, handler))
                run = []
            for field in ("body", "orelse", "finalbody"):
                walk(getattr(stmt, field, []), False)
            for inner in getattr(stmt, "handlers", []):
                walk(inner.body, True)
            for case in getattr(stmt, "cases", []):
                walk(case.body, False)
        if run:
            found.append(block(run, handler))

    body = fn.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]  # the docstring
    walk(body, False)
    return found


HOOK = '''\
import atexit, dis, os, pickle, sys, tempfile, threading
import multiprocessing.util as _mp_util

_ROOT = {root!r}
_OUT = {out!r}
with open(os.path.join(_OUT, "defaults.pickle"), "rb") as _f:
    _DEFAULTS = pickle.load(_f)
_RESUME = dis.opmap.get("RESUME")
_reached = set()
_off = set()
_lines = {{}}  # path -> line numbers executed
_state = {{}}  # code -> None (not ours, or nothing left to see) or [key, pending, want, local]


def _trace(frame, event, arg):
    code = frame.f_code
    try:
        state = _state[code]
    except KeyError:
        state = _state[code] = _first(code)
    if state is None:
        return None
    key, pending, want, local = state
    if pending:
        _defaults(frame, code, key, pending)
        if not pending and not want:
            _state[code] = None
    return local if want else None


def _defaults(frame, code, key, pending):
    if _RESUME is not None:
        at = frame.f_lasti
        raw = code.co_code
        if raw[at] == _RESUME and raw[at + 1] != 0:
            return  # a generator resuming, not a call
    local = frame.f_locals
    if local is None:
        return
    for item in list(pending):
        name, default = item
        if name in local:
            value = local[name]
            if type(value) is not type(default) or value != default:
                _off.add(key + (name,))
                pending.remove(item)


def _first(code):
    if not code.co_filename.startswith(_ROOT):
        return None
    path = code.co_filename[len(_ROOT):]
    key = (path, code.co_firstlineno, code.co_name)
    _reached.add(key)
    seen = _lines.setdefault(path, set())
    # the RESUME line (the def's, or its first decorator's) fires no event
    want = {{line for _, _, line in code.co_lines()}} - seen - {{None, code.co_firstlineno}}

    def local(frame, event, arg):
        if event == "line":
            line = frame.f_lineno
            if line in want:
                want.discard(line)
                seen.add(line)
                if not want:
                    frame.f_trace_lines = False
        return local

    return [key, list(_DEFAULTS.get(key, ())), want, local]


def _dump():
    fd, path = tempfile.mkstemp(prefix="hits-", dir=_OUT)
    with os.fdopen(fd, "wb") as f:
        pickle.dump((_reached, _off, _lines), f)


def _after_fork(_):
    sys.settrace(_trace)
    _mp_util.Finalize(None, _dump, exitpriority=-100)


class _Anchor:
    pass


_ANCHOR = _Anchor()
_mp_util.register_after_fork(_ANCHOR, _after_fork)
atexit.register(_dump)
threading.settrace(_trace)
sys.settrace(_trace)
'''


def trace(functions: list[Function]) -> tuple[set, set, dict[str, set[int]], list[str]]:
    """Run every entry hooked; the function sites reached, the ``site +
    (param,)`` keys seen off their default, the lines each file
    executed, and the failed entries."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        out = Path(tmp) / "hits"
        out.mkdir()
        with open(out / "defaults.pickle", "wb") as f:
            pickle.dump({fn.site: fn.defaults for fn in functions if fn.defaults}, f)
        (Path(tmp) / "sitecustomize.py").write_text(
            HOOK.format(root=str(SRC) + os.sep, out=str(out))
        )
        env = dict(os.environ, PYTHONPATH=f"{tmp}{os.pathsep}{REPO_ROOT / 'src'}")
        for argv, expect in ENTRIES:
            argv = [sys.executable if a == "python" else a.format(tmp=tmp) for a in argv]
            start = time.perf_counter()
            run = subprocess.run(argv, cwd=REPO_ROOT, env=env, capture_output=True, text=True)
            shown = " ".join(argv[1:])
            print(f"reach: {time.perf_counter() - start:6.1f} s  {shown}", file=sys.stderr)
            if run.returncode != expect:
                tail = "\n".join((run.stdout + run.stderr).splitlines()[-20:])
                failures.append(f"{shown}: exit {run.returncode}, expected {expect}\n{tail}")
        reached, off, lines = set(), set(), defaultdict(set)
        for dump in out.glob("hits-*"):
            with open(dump, "rb") as f:
                r, o, executed = pickle.load(f)
            reached |= r
            off |= o
            for path, seen in executed.items():
                lines[path] |= seen
    return reached, off, lines, failures


def judge(
    functions: list[Function],
    mentions: dict[str, list[tuple[str, int]]],
    sources: dict[str, list[str]],
    reached: set,
    off: set,
    lines: dict[str, set[int]],
) -> dict[str, list[tuple[str, str, tuple[str, ...]]]]:
    """Per package, ``(verdict, where, keys)``: any one of ``keys`` on
    ``ALLOW`` allows a fatal finding."""
    findings: dict[str, list[tuple[str, str, tuple[str, ...]]]] = defaultdict(list)
    for fn in functions:
        where = f"{fn.path}:{fn.first} {fn.qualname}"
        package = fn.path.split(os.sep)[0] if os.sep in fn.path else "repro"
        if fn.site not in reached:
            # a dunder is named by the syntax that calls it (len, in, +=)
            named = fn.name.startswith("__") and fn.name.endswith("__") or any(
                p != fn.path or not fn.first <= line <= fn.last
                for p, line in mentions.get(fn.name, ())
            )
            findings[package].append(("unexercised" if named else "dead", where, (fn.key,)))
            continue
        for param, default in fn.defaults:
            if fn.site + (param,) not in off:
                findings[package].append(
                    ("knob", f"{where}({param}={default!r})", (f"{fn.key}({param}=)",))
                )
        for found in blocks(fn.node, lines.get(fn.path, set()), sources[fn.path]):
            findings[package].append((
                found.verdict,
                f"{fn.path}:{found.first} {fn.qualname}: {found.text} ({found.lines} lines)",
                (fn.key, f"{fn.key}:{found.text}"),
            ))
    return findings


def report(findings: dict[str, list[tuple[str, str, tuple[str, ...]]]],
           allow: dict[str, str]) -> tuple[dict[str, int], int, list[str]]:
    """Print every finding; the count per verdict, the fatal findings
    ``allow`` does not cover, and its stale keys."""
    counts: dict[str, int] = defaultdict(int)
    flagged, failing = set(), 0
    for package in sorted(findings):
        for verdict, where, keys in sorted(findings[package]):
            counts[verdict] += 1
            fatal = verdict != "unexercised"
            if fatal:
                flagged.update(keys)
            allowed = fatal and any(key in allow for key in keys)
            print(f"{package}: {verdict} {where}{' (allowed)' if allowed else ''}")
            failing += fatal and not allowed
    stale = sorted(set(allow) - flagged)
    for key in stale:
        print(f"reach: stale ALLOW entry {key}: nothing flags it")
    return counts, failing, stale


def main() -> int:
    start = time.perf_counter()
    functions, mentions, sources = universe()
    reached, off, lines, failures = trace(functions)
    for failure in failures:
        print(f"reach: ENTRY FAILED: {failure}")
    findings = judge(functions, mentions, sources, reached, off, lines)
    counts, failing, stale = report(findings, ALLOW)
    print(
        f"reach: {len(ENTRIES)} entries, {len(functions)} functions, "
        f"{len({fn.site for fn in functions} & reached)} reached; "
        f"{counts['dead']} dead, {counts['unexercised']} unexercised, "
        f"{counts['knob']} test-only knobs, {counts['branch']} test-only branches; "
        f"{failing} not allowed; {time.perf_counter() - start:.0f} s"
    )
    return 1 if failing or stale or failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
