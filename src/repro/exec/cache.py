"""Content-addressed on-disk cache for simulation job results.

Every harness job (one ``(platform config, benchmark, size, kernel
count, unroll)`` cell, see :mod:`repro.exec.pool`) is a *pure function*
of its spec and of the simulator sources: programs are rebuilt fresh per
run and the DES models are deterministic.  That makes results safely
content-addressable — the cache key is a SHA-256 digest over

* the full job spec, including every cost-model parameter reachable from
  the platform object (machine config, cache/DRAM latencies, TSU cost
  tables, Cell parameters, ...), and
* a *source fingerprint*: the hash of every ``.py`` file of the
  installed :mod:`repro` package, so editing any model invalidates all
  previously cached cycles.

The cache directory is taken from the ``TFLUX_CACHE_DIR`` environment
variable; when it is unset or empty, caching is disabled.  Entries are
pickled :class:`~repro.exec.pool.JobOutcome` objects whose ``result`` is
the env-free :class:`~repro.obs.RunRecord` (the cache stores *timing*
results — cycle counts, counters, spans — never program state,
preserving the functional/timing split).  Reads additionally refuse
records carrying a stale ``schema_version``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

__all__ = [
    "ResultCache",
    "cache_from_env",
    "describe",
    "source_fingerprint",
    "spec_digest",
]

#: Bump to invalidate every existing cache entry (format changes).
CACHE_FORMAT = 1

ENV_CACHE_DIR = "TFLUX_CACHE_DIR"


def describe(obj: Any) -> Any:
    """A JSON-able canonical description of *obj* for digesting.

    Recurses through dataclasses (machine configs, cost tables, problem
    sizes) and plain containers; arbitrary objects (platform instances)
    contribute their class identity plus their instance ``__dict__``, so
    any constructor parameter — e.g. ``TFluxHard(tsu_processing_cycles=8)``
    — lands in the digest.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = {
            f.name: describe(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": _qualname(obj), **body}
    if isinstance(obj, dict):
        return {str(k): describe(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [describe(x) for x in items]
    if hasattr(obj, "__dict__"):
        body = {k: describe(v) for k, v in sorted(vars(obj).items())}
        return {"__class__": _qualname(obj), **body}
    return repr(obj)


def _qualname(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


_FINGERPRINT: Optional[str] = None


def source_fingerprint() -> str:
    """Digest of every ``.py`` source file of the :mod:`repro` package.

    Computed once per process.  Any edit to the simulator, the TSU
    models, the workloads — anything under ``repro/`` — changes the
    fingerprint and therefore invalidates all cached results.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _FINGERPRINT = h.hexdigest()
    return _FINGERPRINT


def spec_digest(spec: Any) -> str:
    """The content address of one job spec (hex SHA-256)."""
    payload = json.dumps(
        {
            "format": CACHE_FORMAT,
            "sources": source_fingerprint(),
            "spec": describe(spec),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Pickle-per-entry cache in ``<root>/<digest[:2]>/<digest>.pkl``.

    Reads tolerate missing or corrupt entries (treated as misses);
    writes are atomic (temp file + rename) so concurrent workers and
    concurrent harness runs can share one directory.

    ``__len__``, :meth:`stats` and :meth:`prune` each walk the tree when
    called, so they see other processes' writes; nothing polls them (the
    server's stats reply carries only the hit/miss/store counters of
    :meth:`publish_counters`) — they serve ``tflux-cache``.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.pkl"

    def get(self, digest: str) -> Optional[Any]:
        path = self._path(digest)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except Exception:
            # Missing file, or corrupt bytes: unpickling garbage can raise
            # nearly anything (ValueError for an unknown protocol byte,
            # KeyError/IndexError for bad opcodes, ...).  All are misses.
            self.misses += 1
            return None
        if not self._schema_ok(value):
            self.misses += 1
            return None
        self.hits += 1
        return value

    @staticmethod
    def _schema_ok(value: Any) -> bool:
        """Refuse entries whose RunRecord predates the current schema.

        The source fingerprint already invalidates on any ``repro`` code
        edit, but a cache directory can outlive an install (or be shared
        across checkouts); a stale record deserialising silently into a
        newer field set is the failure mode this guards against.
        """
        record = getattr(value, "result", None)
        if record is None:
            return True
        from repro.obs import SCHEMA_VERSION

        return getattr(record, "schema_version", None) == SCHEMA_VERSION

    def put(self, digest: str, value: Any) -> None:
        path = self._path(digest)
        while True:
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
                break
            except FileNotFoundError:
                continue  # raced a concurrent prune's empty-shard sweep
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    # -- maintenance ----------------------------------------------------------
    def _scan(self) -> dict[str, tuple[int, float]]:
        """``digest -> (size bytes, mtime)`` of every entry on disk now."""
        entries: dict[str, tuple[int, float]] = {}
        if self.root.exists():
            for path in self.root.glob("*/*.pkl"):
                try:
                    st = path.stat()
                except OSError:
                    continue  # raced with a concurrent prune
                entries[path.stem] = (st.st_size, st.st_mtime)
        return entries

    def __len__(self) -> int:
        return len(self._scan())

    def stats(self) -> dict[str, Any]:
        """Entry count / on-disk bytes plus this handle's hit counters."""
        entries = self._scan()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for size, _ in entries.values()),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
    ) -> dict[str, int]:
        """Evict entries until the tree fits *max_bytes* / *max_age*.

        Age is mtime-based, in seconds; the size bound evicts
        oldest-first until the total fits.  Scans the tree first, so
        concurrent writers' entries are governed too, and tolerates
        entries vanishing mid-prune (two prunes may race the same
        directory).  Returns ``{"removed", "freed_bytes", "remaining",
        "remaining_bytes"}``.
        """
        entries = self._scan()
        doomed: list[str] = []
        if max_age is not None:
            cutoff = time.time() - max_age
            doomed.extend(d for d, (_, mtime) in entries.items() if mtime < cutoff)
        if max_bytes is not None:
            aged_out = set(doomed)
            survivors = [
                (mtime, size, d)
                for d, (size, mtime) in entries.items()
                if d not in aged_out
            ]
            total = sum(size for _, size, _ in survivors)
            survivors.sort()  # oldest first
            for mtime, size, digest in survivors:
                if total <= max_bytes:
                    break
                doomed.append(digest)
                total -= size
        freed = 0
        removed = 0
        for digest in doomed:
            size, _ = entries.pop(digest)
            try:
                os.unlink(self._path(digest))
            except OSError:
                continue
            removed += 1
            freed += size
        if self.root.exists():
            for shard in self.root.iterdir():
                if shard.is_dir():
                    try:
                        shard.rmdir()  # only succeeds when empty
                    except OSError:
                        pass
        return {
            "removed": removed,
            "freed_bytes": freed,
            "remaining": len(entries),
            "remaining_bytes": sum(size for size, _ in entries.values()),
        }

    def publish_counters(self, counters: Any) -> None:
        """Add this handle's hits/misses/stores to a Counters registry."""
        scope = counters.scope("exec.cache")
        scope.inc("hits", self.hits)
        scope.inc("misses", self.misses)
        scope.inc("stores", self.stores)


def cache_from_env() -> Optional[ResultCache]:
    """The cache named by ``TFLUX_CACHE_DIR``, or ``None`` when unset."""
    root = os.environ.get(ENV_CACHE_DIR, "").strip()
    if not root:
        return None
    return ResultCache(root)
