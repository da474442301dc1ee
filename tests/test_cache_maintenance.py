"""Maintenance-layer tests for the on-disk ResultCache.

Covers the in-memory index (no directory re-walk per ``len``/``stats``),
``prune`` by age and by size, counter publication, the ``tflux-cache``
CLI, and — because servers and sweeps share one ``TFLUX_CACHE_DIR`` —
two processes racing put/get on a single tree.
"""

import json
import os
import random
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.exec import ResultCache, pool_context
from repro.exec.cachecli import main as cache_cli
from repro.obs import Counters


def _digest(i: int) -> str:
    return f"{i:02x}{'cafe' * 15}"  # unique two-char shard per entry


def _fill(cache: ResultCache, n: int, payload: int = 64) -> list[str]:
    digests = [_digest(i) for i in range(n)]
    for d in digests:
        cache.put(d, ("payload", d, "x" * payload))
    return digests


# -- index ---------------------------------------------------------------------
def test_put_keeps_own_index_current(tmp_path):
    cache = ResultCache(tmp_path)
    assert len(cache) == 0
    for i in range(3):
        cache.put(_digest(i), i)
        assert len(cache) == i + 1  # no refresh needed for own writes


def test_stats_reports_on_disk_bytes(tmp_path):
    cache = ResultCache(tmp_path)
    _fill(cache, 3)
    on_disk = sum(p.stat().st_size for p in tmp_path.glob("*/*.pkl"))
    stats = cache.stats()
    assert stats["entries"] == 3
    assert stats["bytes"] == on_disk


# -- prune ---------------------------------------------------------------------
def test_prune_by_age(tmp_path):
    cache = ResultCache(tmp_path)
    digests = _fill(cache, 3)
    old = time.time() - 7200
    for d in digests[:2]:
        os.utime(cache._path(d), (old, old))
    report = cache.prune(max_age=3600)
    assert report["removed"] == 2 and report["remaining"] == 1
    assert cache.get(digests[2]) is not None
    assert cache.get(digests[0]) is None


def test_prune_by_bytes_evicts_oldest_first(tmp_path):
    cache = ResultCache(tmp_path)
    digests = _fill(cache, 4)
    for rank, d in enumerate(digests):
        mtime = 1_000_000 + rank  # digests[0] oldest .. digests[3] newest
        os.utime(cache._path(d), (mtime, mtime))
    entry = cache._path(digests[0]).stat().st_size
    report = cache.prune(max_bytes=2 * entry)
    assert report["removed"] == 2
    assert report["remaining_bytes"] <= 2 * entry
    assert cache.get(digests[0]) is None and cache.get(digests[1]) is None
    assert cache.get(digests[2]) is not None and cache.get(digests[3]) is not None


def test_prune_removes_empty_shards_and_sees_foreign_writes(tmp_path):
    writer = ResultCache(tmp_path)
    digests = _fill(writer, 2)
    other = ResultCache(tmp_path)
    len(other)  # build a (soon stale) index
    writer.put(_digest(9), "late")
    # prune rescans: the foreign write is governed despite the stale index.
    report = other.prune(max_bytes=0)
    assert report["removed"] == 3 and report["remaining"] == 0
    assert not any(tmp_path.glob("*/")), "empty shard dirs are swept"
    assert writer.get(digests[0]) is None


def test_prune_without_bounds_is_a_rescan_noop(tmp_path):
    cache = ResultCache(tmp_path)
    _fill(cache, 2)
    report = cache.prune()
    assert report == {
        "removed": 0,
        "freed_bytes": 0,
        "remaining": 2,
        "remaining_bytes": report["remaining_bytes"],
    }


def test_prune_on_missing_root(tmp_path):
    cache = ResultCache(tmp_path / "never-created")
    assert cache.prune(max_bytes=0)["removed"] == 0


def test_put_refuses_a_file_squatting_its_shard(tmp_path):
    """A regular file where the shard directory belongs is no prune race:
    ``put`` raises instead of retrying for ever (bounded by SIGALRM)."""
    cache = ResultCache(tmp_path)
    (tmp_path / _digest(0)[:2]).write_bytes(b"squatter")

    def hung(signum, frame):
        raise TimeoutError("put spun on a squatted shard")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(FileExistsError):
            cache.put(_digest(0), "value")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert cache.stores == 0 and cache.get(_digest(0)) is None


# -- counters ------------------------------------------------------------------
def test_publish_counters(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(_digest(0), ("v",))
    cache.get(_digest(0))
    cache.get(_digest(1))  # miss
    counters = Counters()
    cache.publish_counters(counters)
    assert counters["exec.cache.hits"] == 1
    assert counters["exec.cache.misses"] == 1
    assert counters["exec.cache.stores"] == 1


# -- CLI -----------------------------------------------------------------------
def test_cli_stats_and_prune(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    _fill(cache, 3)
    assert cache_cli(["--dir", str(tmp_path), "stats", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["entries"] == 3 and info["bytes"] > 0

    assert cache_cli(["--dir", str(tmp_path), "prune", "--max-mb", "0",
                      "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["removed"] == 3 and report["remaining"] == 0

    assert cache_cli(["--dir", str(tmp_path), "stats"]) == 0
    assert "0 entries" in capsys.readouterr().out


def test_cli_env_dir_and_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TFLUX_CACHE_DIR", str(tmp_path))
    _fill(ResultCache(tmp_path), 1)
    assert cache_cli(["stats"]) == 0
    assert "1 entries" in capsys.readouterr().out
    assert cache_cli(["prune"]) == 2  # prune needs a bound
    monkeypatch.setenv("TFLUX_CACHE_DIR", "")
    assert cache_cli(["stats"]) == 2  # no directory anywhere
    capsys.readouterr()


# -- cross-process sharing -----------------------------------------------------
def _hammer(root: str, seed: int) -> int:
    """Worker: interleave puts and gets against a shared tree; any get
    must observe either nothing or a complete, valid entry."""
    cache = ResultCache(root)
    rng = random.Random(seed)
    digests = [_digest(i) for i in range(6)]
    for _ in range(150):
        d = rng.choice(digests)
        if rng.random() < 0.5:
            cache.put(d, ("payload", d))
        else:
            value = cache.get(d)
            assert value is None or value == ("payload", d)
    return cache.stores


def test_two_processes_share_one_cache_dir(tmp_path):
    """Two processes race put/get on one TFLUX_CACHE_DIR while the
    parent prunes concurrently: no torn reads, no crashes (atomic
    replace + rescanning prune tolerate each other)."""
    with ProcessPoolExecutor(max_workers=2, mp_context=pool_context()) as pool:
        futures = [pool.submit(_hammer, str(tmp_path), seed) for seed in (1, 2)]
        parent = ResultCache(tmp_path)
        while not all(f.done() for f in futures):
            parent.prune(max_bytes=10_000)
        assert sum(f.result() for f in futures) > 0
    # The tree is still a healthy cache afterwards.
    survivor = ResultCache(tmp_path)
    assert survivor.stats()["entries"] == len(survivor)
