"""The wire form of a job is *derived* from ``JobSpec``, not typed beside it.

``serve/protocol.py`` names the six fields the server resolves through a
registry (plus the wire's own ``unroll`` default) and takes every other
field, default and type from ``dataclasses.fields(JobSpec)``.  These
tests pin that derivation, and pin the wire bytes and the specs a fixed
list of well-formed jobs decodes to, so a refactor of the table cannot
move either.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.apps import BENCHMARKS
from repro.exec import JobSpec, describe
from repro.platforms import PLATFORMS
from repro.serve.protocol import (
    _JOB_DEFAULTS,
    WireError,
    decode,
    encode,
    job_from_wire,
    job_to_wire,
)

#: The fields a wire job spells differently from the spec: names looked
#: up in the platform / size registries, ``nkernels`` with its 0 =
#: platform-max default, ``unroll`` defaulted, and the dist shape.
NAMED = {"platform", "size", "nkernels", "unroll", "nodes", "topology", "cluster"}

SPEC_DEFAULTS = {
    f.name: f.default
    for f in dataclasses.fields(JobSpec)
    if f.default is not dataclasses.MISSING
}


@pytest.mark.parametrize(
    "line",
    [
        b"{not json}\n",
        b'{"type":"\xff"}\n',
        b"[" * 100_000 + b"\n",
        b"[" * 5000 + b"]" * 5000 + b"\n",
    ],
    ids=["syntax", "not-utf8", "nested-unclosed", "nested-well-formed"],
)
def test_decode_refuses_a_bad_line_as_a_wire_error(line):
    """Bytes that are not UTF-8 and nesting deeper than the parser
    recurses are bad lines like any other, not a ``UnicodeDecodeError``
    or ``RecursionError`` past the caller's ``except``."""
    with pytest.raises(WireError, match="bad JSON"):
        decode(line)


def test_wire_table_is_the_named_fields_plus_every_defaulted_spec_field():
    assert set(_JOB_DEFAULTS) == NAMED | set(SPEC_DEFAULTS)
    assert SPEC_DEFAULTS  # the derivation found the dataclass defaults
    assert not NAMED & set(SPEC_DEFAULTS)


@pytest.mark.parametrize("name", sorted(SPEC_DEFAULTS))
def test_spec_default_is_the_wire_default_and_is_elided(name):
    default = SPEC_DEFAULTS[name]
    assert getattr(job_from_wire({"bench": "trapez"}), name) == default
    assert job_to_wire("trapez", **{name: default}) == {"bench": "trapez"}


def test_wire_values_are_coerced_by_the_type_of_the_default():
    # bool("yes") is True: a truthy string stays accepted, as it always was.
    assert job_from_wire({"bench": "trapez", "verify": "yes"}).verify is True
    assert job_from_wire({"bench": "trapez", "max_threads": "64"}).max_threads == 64
    # A None default is an optional int.
    assert job_from_wire({"bench": "trapez", "tsu_capacity": "8"}).tsu_capacity == 8
    assert job_from_wire({"bench": "trapez", "tsu_capacity": None}).tsu_capacity is None
    for bad in ({"max_threads": "many"}, {"nkernels": "many"}, {"tsu_capacity": "x"}):
        with pytest.raises(WireError, match="invalid literal"):
            job_from_wire({"bench": "trapez", **bad})


def test_job_to_wire_refuses_a_field_the_table_does_not_have():
    with pytest.raises(WireError, match="unknown job field 'kernels'"):
        job_to_wire("trapez", kernels=4)


@pytest.mark.parametrize(
    "job, text",
    [
        ({"bench": "nope"}, "unknown benchmark 'nope'"),
        ({"bench": "trapez", "platform": "gpu"}, "unknown platform 'gpu'"),
        (
            {"bench": "trapez", "size": "huge"},
            "unknown size 'huge' (have ['large', 'medium', 'small'])",
        ),
        ({"bench": "trapez", "mode": "evaluate"}, "unknown mode 'evaluate'"),
        ({"bench": "trapez", "unroll": 0}, "unroll must be >= 1, got 0"),
        ({"bench": "trapez", "bogus": 1}, "unknown job fields: ['bogus']"),
        (
            {"bench": "trapez", "platform": "dist", "topology": "ring"},
            "unknown topology 'ring'",
        ),
        (
            {"bench": "trapez", "platform": "dist", "cluster": -1},
            "cluster_size must be >= 1, got -1",
        ),
        (
            {"bench": "trapez", "platform": "dist", "nodes": 65},
            "TFluxDist requests 65 nodes, but the two-level sharer directory "
            "supports up to 64 nodes x 64 cores (4096 cores total)",
        ),
        (["trapez"], "job must be an object"),
    ],
)
def test_refusal_texts(job, text):
    """What a client reads back when its job is refused (byte for byte
    what the server has always printed)."""
    with pytest.raises(WireError) as info:
        job_from_wire(job)
    assert str(info.value) == text


# -- wire identity -------------------------------------------------------------
#: Seven field mixes; together they set every wire field to a non-default
#: value at least once, and the last spells defaults out (they must be
#: elided from the bytes).
_MIXES = (
    {},
    {"nkernels": 2, "unroll": 4},
    {"size": "large", "max_threads": 512, "verify": True},
    {"mode": "sequential", "exact_memory": True},
    {"tsu_capacity": 64, "allow_stealing": True, "unroll": 16},
    {"capture_errors": True},
    {"size": "medium", "nkernels": 1, "unroll": 1, "max_threads": 4096,
     "verify": False, "mode": "execute", "tsu_capacity": None},
)
#: The dist shape that rides along with each mix on ``platform="dist"``.
_DIST = (
    {},
    {"nodes": 4},
    {"nodes": 8, "topology": "fattree"},
    {"nodes": 16, "topology": "spine", "cluster": 4},
    {"nodes": 2, "topology": "mesh", "cluster": 0},
    {"nodes": 64, "topology": "fattree", "cluster": 8},
    {"nodes": 3, "cluster": 1},
)


def wire_identity_jobs():
    """7 benchmarks x 4 platforms x 7 field mixes = 196 well-formed jobs."""
    jobs = []
    for bench in BENCHMARKS:
        for platform in PLATFORMS:
            for mix, dist in zip(_MIXES, _DIST):
                extra = dist if platform == "dist" else {}
                jobs.append(job_to_wire(bench, platform=platform, **mix, **extra))
    return jobs


def wire_identity_digest():
    h = hashlib.sha256()
    for job in wire_identity_jobs():
        h.update(encode(job))
        h.update(json.dumps(describe(job_from_wire(job)), sort_keys=True).encode())
    return h.hexdigest()


def test_wire_identity_golden():
    """The bytes a well-formed job travels as, and the full description
    (platform cost tables and problem size included) of the spec it
    decodes to, over 196 jobs.  Taken on PR 19's parent commit and equal
    after it.  The digest covers every cost-model constant reachable from
    a platform: a PR that moves one on purpose re-pins it with
    ``python -c "from tests.test_serve_protocol import *;
    print(wire_identity_digest())"``."""
    jobs = wire_identity_jobs()
    assert len({encode(job) for job in jobs}) == 196  # the mixes are distinct
    assert wire_identity_digest() == (
        "008ad903d32723c4baf672aa37adcd266933e1c4b1841d61a3c5cae4b3243f5d"
    )
