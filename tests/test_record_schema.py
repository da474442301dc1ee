"""RunRecord schema governance and serialisation round trips.

The exec cache persists pickled RunRecords; the only thing standing
between a stale cache and silently wrong analysis numbers is the
``schema_version`` discipline checked here (and by
``tools/check_record_schema.py``, whose verification these tests run as
part of the suite).
"""

import copy
import json
import pickle
import sys
from pathlib import Path

import pytest

from repro.core import ProgramBuilder
from repro.obs import (
    SCHEMA_VERSION,
    RunRecord,
    Tracer,
    record_schema,
    verify_schema_fixture,
)
from repro.platforms import TFluxHard

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = REPO_ROOT / "tests" / "data" / "run_record_schema.json"


def _record() -> RunRecord:
    b = ProgramBuilder("tiny")
    b.env.alloc("out", 4)
    b.thread("work", body=lambda env, i: env.array("out").__setitem__(i, i),
             contexts=4)
    tracer = Tracer()
    return TFluxHard().execute(b.build(), nkernels=2, tracer=tracer).to_record()


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


# -- golden fixture ------------------------------------------------------------
def test_golden_fixture_matches_live_schema():
    assert verify_schema_fixture(_fixture()) == []


def test_field_change_without_bump_is_flagged():
    tampered = copy.deepcopy(_fixture())
    tampered["fields"]["RunRecord"].append("new_field")
    problems = verify_schema_fixture(tampered)
    assert problems
    assert any("SCHEMA_VERSION bump" in p for p in problems)


def test_version_bump_requires_fixture_regeneration():
    tampered = copy.deepcopy(_fixture())
    tampered["schema_version"] = SCHEMA_VERSION + 1
    problems = verify_schema_fixture(tampered)
    assert problems
    assert any("regenerate" in p for p in problems)


def test_checker_tool_passes_on_current_tree():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import check_record_schema

        assert check_record_schema.main([]) == 0
    finally:
        sys.path.remove(str(REPO_ROOT / "tools"))


def test_schema_covers_every_embedded_type():
    schema = record_schema()
    assert set(schema) == {
        "RunRecord", "KernelStats", "CoreStats", "CacheStats", "Span"
    }
    assert "schema_version" in schema["RunRecord"]


# -- records are picklable and env-free ----------------------------------------
def test_record_pickle_round_trip():
    rec = _record()
    clone = pickle.loads(pickle.dumps(rec))
    assert clone.schema_version == SCHEMA_VERSION
    assert clone.counters == rec.counters
    assert clone.spans == rec.spans
    assert clone.cycles == rec.cycles
    assert [k.core for k in clone.kernels] == [k.core for k in rec.kernels]


def test_record_has_no_environment():
    rec = _record()
    assert not hasattr(rec, "env")
    # Nothing reachable from the record is a live Environment.
    from repro.core.environment import Environment

    assert not any(
        isinstance(v, Environment) for v in vars(rec).values()
    )


def test_record_json_round_trip():
    rec = _record()
    data = json.loads(json.dumps(rec.to_json_dict()))
    clone = RunRecord.from_json_dict(data)
    assert clone == rec


def test_from_json_dict_rejects_other_versions():
    data = _record().to_json_dict()
    data["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema"):
        RunRecord.from_json_dict(data)


def test_v1_payload_is_rejected():
    """The v2 bump added ``nnodes`` (TFluxDist) and the ``net.*`` counter
    namespace; a genuine v1 payload — no ``nnodes`` key — must refuse to
    deserialise rather than default its way into the new field set."""
    data = _record().to_json_dict()
    data["schema_version"] = 1
    del data["nnodes"]
    with pytest.raises(ValueError, match="schema 1"):
        RunRecord.from_json_dict(data)


def test_nnodes_rides_the_record():
    rec = _record()  # TFluxHard: every single-node platform records 1
    assert rec.nnodes == 1
    assert rec.to_json_dict()["nnodes"] == 1


def test_record_derived_quantities():
    rec = _record()
    assert rec.total_dthreads == 4  # the four "work" contexts
    assert 0.0 < rec.utilisation() <= 1.0
    assert rec.measured_cycles > 0
