"""Access clauses on ``#pragma ddm thread`` and the --check-deps pass.

The Couillard-style front end: ``reads(...)``/``writes(...)`` clauses
declare per-instance footprints, the back end emits them as
``AccessSummary`` functions, and arc-less programs get their
synchronization graph *derived* (``b.auto_depends()``) instead of
hand-declared.  ``ddmcpp --check-deps`` diagnoses declared graphs
against the derived one.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.preprocessor import DDMSyntaxError, compile_to_program, emit_module
from repro.preprocessor.cli import main as ddmcpp_main

DATA = Path(__file__).parent / "data"

DERIVED = """
#pragma ddm startprogram name(derived_reduction)
#pragma ddm var double parts[8]
#pragma ddm var double total[1]
#pragma ddm thread 1 context(8) writes(parts[CTX])
parts[CTX] = CTX * 2.0;
#pragma ddm endthread
#pragma ddm thread 2 reads(parts) writes(total[0])
int i;
total[0] = 0.0;
for (i = 0; i < 8; i = i + 1) { total[0] = total[0] + parts[i]; }
#pragma ddm endthread
#pragma ddm endprogram
"""


def test_derived_pragma_program_runs():
    prog = compile_to_program(DERIVED)
    # The deriver found the write->read arc: thread 2 waits for all 8
    # producers, so sequential execution is already dataflow-correct.
    assert len(prog.graph.arcs) == 1
    arc = prog.graph.arcs[0]
    assert (arc.producer, arc.consumer, arc.mapping) == (1, 2, "all")
    env = prog.run_sequential()
    assert env.array("total")[0] == sum(i * 2.0 for i in range(8))


def test_derived_pragma_emission_shape():
    module = emit_module(DERIVED)
    assert "from repro.sim.accesses import AccessSummary" in module
    assert "def _acc_thread_1(env, CTX):" in module
    assert "accesses=_acc_thread_1" in module
    assert "b.auto_depends()" in module


def test_clause_free_programs_emit_no_access_machinery():
    src = """
#pragma ddm startprogram name(plain)
#pragma ddm var double a[4]
#pragma ddm thread 1 context(4)
a[CTX] = CTX;
#pragma ddm endthread
#pragma ddm thread 2 depends(1 all)
a[0] = a[0] + 1.0;
#pragma ddm endthread
#pragma ddm endprogram
"""
    module = emit_module(src)
    assert "AccessSummary" not in module
    assert "auto_depends" not in module
    assert "_acc_thread" not in module


def test_range_clause_and_elem_sizes():
    src = """
#pragma ddm startprogram name(ranges)
#pragma ddm var float a[16]
#pragma ddm var char flags[16]
#pragma ddm thread 1 context(4) writes(a[CTX * 4 .. CTX * 4 + 4])
int i;
for (i = CTX * 4; i < CTX * 4 + 4; i = i + 1) { a[i] = i; }
#pragma ddm endthread
#pragma ddm thread 2 context(4) reads(a[CTX * 4 .. CTX * 4 + 4]) writes(flags[CTX])
flags[CTX] = 1;
#pragma ddm endthread
#pragma ddm endprogram
"""
    prog = compile_to_program(src)
    arc = prog.graph.arcs[0]
    # Disjoint float ranges (4 bytes/elem): the derived arc is "same",
    # not a barrier — the clause arithmetic respected the elem size.
    assert (arc.producer, arc.consumer, arc.mapping) == (1, 2, "same")
    env = prog.run_sequential()
    np.testing.assert_array_equal(
        env.array("a"), np.arange(16, dtype=np.float32)
    )


@pytest.mark.parametrize(
    "clause, message",
    [
        ("reads(nosuch)", "unknown shared variable"),
        ("writes(scalar)", "require an array"),
        ("reads(m[CTX])", "1-D array"),
        ("reads(a[])", "empty index"),
        ("reads(a[1 .. 2 .. 3])", "more than one"),
    ],
)
def test_malformed_clauses_rejected(clause, message):
    src = f"""
#pragma ddm startprogram name(bad)
#pragma ddm var double a[4]
#pragma ddm var double scalar
#pragma ddm var double m[2][2]
#pragma ddm thread 1 {clause}
a[0] = 1.0;
#pragma ddm endthread
#pragma ddm endprogram
"""
    with pytest.raises(DDMSyntaxError, match=message):
        compile_to_program(src)


def test_subflow_access_clauses_rejected():
    src = """
#pragma ddm startprogram name(sf)
#pragma ddm var double a[4]
#pragma ddm thread 1
a[0] = 1.0;
#pragma ddm endthread
#pragma ddm subflow name(kid)
#pragma ddm thread 1 reads(a)
a[1] = a[0];
#pragma ddm endthread
#pragma ddm endsubflow
#pragma ddm endprogram
"""
    with pytest.raises(DDMSyntaxError, match="not supported inside subflows"):
        emit_module(src)


# -- the --check-deps diagnosis pass -------------------------------------------
def _write(tmp_path, text):
    path = tmp_path / "prog.ddm"
    path.write_text(text)
    return str(path)


def test_check_deps_clean(tmp_path, capsys):
    assert ddmcpp_main([_write(tmp_path, DERIVED), "--check-deps"]) == 0
    assert "deps: clean" in capsys.readouterr().out


def test_check_deps_flags_redundant_arc(tmp_path, capsys):
    src = """
#pragma ddm startprogram name(redundant)
#pragma ddm var double a[4]
#pragma ddm var double b[4]
#pragma ddm thread 1 context(4) writes(a[CTX])
a[CTX] = CTX;
#pragma ddm endthread
#pragma ddm thread 2 context(4) depends(1 same) reads(b[CTX]) writes(b[CTX])
b[CTX] = b[CTX] + 1.0;
#pragma ddm endthread
#pragma ddm endprogram
"""
    # The declared arc orders threads that never touch common data:
    # diagnosed as redundant (a warning — exit stays 0).
    assert ddmcpp_main([_write(tmp_path, src), "--check-deps"]) == 0
    out = capsys.readouterr().out
    assert "redundant arc thread_1 -> thread_2" in out


def test_check_deps_flags_missing_dependence(capsys):
    # Thread 3 reads what thread 2 writes but declares no arc (and the
    # program declares other arcs, so no auto-derivation kicked in):
    # that conflict has no ordering path — an error, exit 1.  CI's
    # deps-check runs the same fixture.
    assert ddmcpp_main([str(DATA / "missing_arc.ddm"), "--check-deps"]) == 1
    out = capsys.readouterr().out
    assert "missing dependence" in out
    assert "thread_2" in out and "thread_3" in out
