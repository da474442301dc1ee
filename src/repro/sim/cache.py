"""Exact cache-hierarchy and MESI coherence model.

This mirrors the memory system the paper simulated with Simics ``gcache``
modules for the 28-core "Bagle" machine (§6.1.1): per-core set-associative
L1 data caches, per-core (or per-cluster, for the Xeon) unified L2 caches,
and a MESI protocol kept consistent through a snooping bus.  All state is
tracked at cache-line granularity with true LRU within each set, so hits,
capacity misses, cold misses, coherence (cache-to-cache) misses, and
upgrade (S→M) transactions are all first-class observable events.

Latency accounting follows the paper's configuration:

* L1 read 2 cycles / write 0 cycles (Bagle) or 3 cycles (Xeon);
* L2 read/write 20 cycles (Bagle) or 14 cycles (Xeon);
* main memory and coherence transfer latencies are parameters of
  :class:`MemoryConfig`.

The model is exact but line-by-line, so it is used for validation and
small runs; :mod:`repro.sim.fastcache` provides the vectorised equivalent
used in the benchmark sweeps and is cross-validated against this module in
the test suite.

Coherence granularity note: the Bagle configuration gives L1 64-byte and
L2 128-byte lines.  We track both levels and the directory at the L1 line
size — the evaluation-relevant effects (sharing, invalidations, transfer
volume) happen at producer/consumer granularity far above one line, so
this simplification does not change any reported shape.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.sim.accesses import AccessSummary, RegionSpace, _RangeOp

__all__ = [
    "CacheConfig",
    "MemoryConfig",
    "CacheLevel",
    "CacheStats",
    "CoherentMemorySystem",
]


# MESI line states.
MODIFIED = "M"
EXCLUSIVE = "E"
SHARED = "S"
# Invalid lines are simply absent from the cache structures.


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size: int
    line_size: int
    assoc: int
    read_latency: int
    write_latency: int

    def __post_init__(self) -> None:
        if self.size % (self.line_size * self.assoc):
            raise ValueError(
                f"cache size {self.size} not divisible by line*assoc "
                f"({self.line_size}*{self.assoc})"
            )

    @property
    def num_sets(self) -> int:
        return self.size // (self.line_size * self.assoc)

    @property
    def num_lines(self) -> int:
        return self.size // self.line_size


@dataclass(frozen=True)
class MemoryConfig:
    """Latencies of everything beyond the L2.

    ``dram_burst_latency`` is the effective per-line stall of a *dense
    sequential* miss stream: after the first (full-latency) miss of a run,
    consecutive-line misses overlap via hardware prefetch / open-page
    bursts.  Strided and isolated misses always pay ``dram_latency``.
    """

    dram_latency: int
    dram_burst_latency: int
    cache_to_cache_latency: int
    upgrade_latency: int


class CacheLevel:
    """One set-associative cache with true-LRU replacement.

    Lines are keyed by line address; MESI state is stored with the line.
    The class is deliberately policy-free: coherence decisions live in
    :class:`CoherentMemorySystem`.
    """

    __slots__ = ("config", "_sets", "name")

    def __init__(self, config: CacheConfig, name: str = "") -> None:
        self.config = config
        self.name = name
        # Set index -> OrderedDict (line_addr -> state; LRU order =
        # insertion order with move_to_end on touch), created on the first
        # insert into the set: a set never filled holds nothing, so a
        # lookup there is a miss.
        self._sets: dict[int, OrderedDict[int, str]] = {}

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.config.line_size) % self.config.num_sets

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[str]:
        """Return the MESI state if present (refreshing LRU), else None."""
        s = self._sets.get(self._set_index(line_addr))
        if s is None:
            return None
        state = s.get(line_addr)
        if state is not None and touch:
            s.move_to_end(line_addr)
        return state

    def insert(self, line_addr: int, state: str) -> Optional[tuple[int, str]]:
        """Install a line; returns ``(evicted_line, evicted_state)`` or None."""
        index = self._set_index(line_addr)
        s = self._sets.get(index)
        if s is None:
            s = self._sets[index] = OrderedDict()
        victim: Optional[tuple[int, str]] = None
        if line_addr not in s and len(s) >= self.config.assoc:
            victim = s.popitem(last=False)  # least recently used
        s[line_addr] = state
        s.move_to_end(line_addr)
        return victim

    def set_state(self, line_addr: int, state: str) -> None:
        s = self._sets.get(self._set_index(line_addr))
        if s is None or line_addr not in s:
            raise KeyError(f"line {line_addr:#x} not in cache {self.name!r}")
        s[line_addr] = state

    def invalidate(self, line_addr: int) -> Optional[str]:
        """Drop the line; returns its prior state (None if absent)."""
        s = self._sets.get(self._set_index(line_addr))
        return None if s is None else s.pop(line_addr, None)

    def __contains__(self, line_addr: int) -> bool:
        return self.lookup(line_addr, touch=False) is not None


@dataclass
class CacheStats:
    """Per-core access statistics."""

    l1_hits: int = 0
    l2_hits: int = 0
    mem_misses: int = 0
    coherence_misses: int = 0
    upgrades: int = 0
    accesses: int = 0
    cycles: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.l1_hits += other.l1_hits
        self.l2_hits += other.l2_hits
        self.mem_misses += other.mem_misses
        self.coherence_misses += other.coherence_misses
        self.upgrades += other.upgrades
        self.accesses += other.accesses
        self.cycles += other.cycles


class CoherentMemorySystem:
    """MESI-coherent multi-level memory hierarchy for *ncores* cores.

    Parameters
    ----------
    ncores:
        Number of cores, each with a private L1.
    l1, l2:
        Cache geometries.  ``l2_groups`` maps each core to an L2 instance
        (``None`` means one private L2 per core, as in Bagle; the Xeon box
        shares one 4MB L2 per core pair).
    mem:
        Latencies beyond L2.
    regions:
        The :class:`RegionSpace` whose regions are laid out contiguously
        (line-aligned) in the simulated physical address space.
    """

    def __init__(
        self,
        ncores: int,
        l1: CacheConfig,
        l2: CacheConfig,
        mem: MemoryConfig,
        regions: RegionSpace,
        l2_groups: Optional[list[int]] = None,
    ) -> None:
        self.ncores = ncores
        self.l1cfg = l1
        self.l2cfg = l2
        self.mem = mem
        self.line_size = l1.line_size
        self.regions = regions

        self.l1s = [CacheLevel(l1, name=f"L1#{i}") for i in range(ncores)]
        if l2_groups is None:
            l2_groups = list(range(ncores))
        if len(l2_groups) != ncores:
            raise ValueError("l2_groups must have one entry per core")
        self.l2_groups = l2_groups
        self.l2s = [
            CacheLevel(l2, name=f"L2#{g}") for g in range(max(l2_groups) + 1)
        ]
        # Directory: line address -> set of cores holding it in L1 (any
        # state); the single M/E owner is tracked separately.
        self._sharers: dict[int, set[int]] = {}
        self._owner: dict[int, int] = {}  # line -> core holding M
        self.stats = [CacheStats() for _ in range(ncores)]

        # Region layout: sequential, line-aligned.
        self._bases: dict[str, int] = {}
        cursor = 0
        for reg in regions:
            self._bases[reg.name] = cursor
            cursor += -(-reg.size // self.line_size) * self.line_size

    # -- address helpers --------------------------------------------------
    def _line_of(self, region_name: str, offset: int) -> int:
        addr = self._bases[region_name] + offset
        return addr - addr % self.line_size

    # -- core protocol -----------------------------------------------------
    def access(self, core: int, region_name: str, offset: int, is_write: bool) -> int:
        """Perform one access; returns its latency in cycles."""
        line = self._line_of(region_name, offset)
        latency, _dram = self._access_line(core, line, is_write, burst=False)
        return latency

    def _drop_from_l1(self, core: int, line: int) -> None:
        """Directory bookkeeping for a line leaving core's L1.

        Ownership of a dirty line is *not* cleared: the dirty data now
        lives in the core's L2 and a remote access must still fetch it via
        a coherence intervention (dirty-in-L2 transfer).
        """
        sharers = self._sharers.get(line)
        if sharers is not None:
            sharers.discard(core)
            if not sharers:
                del self._sharers[line]

    def _install(self, core: int, line: int, state: str) -> None:
        victim = self.l1s[core].insert(line, state)
        self._sharers.setdefault(line, set()).add(core)
        if state == MODIFIED:
            self._owner[line] = core
        if victim is not None:
            vline, vstate = victim
            if vstate == MODIFIED:
                # Dirty victim lands in this core's L2; ownership persists.
                self.l2s[self.l2_groups[core]].insert(vline, MODIFIED)
            self._drop_from_l1(core, vline)

    def _l2_fill(self, core: int, line: int) -> bool:
        """Look up / fill the core's L2; returns True on L2 hit."""
        l2 = self.l2s[self.l2_groups[core]]
        if l2.lookup(line) is not None:
            return True
        l2.insert(line, SHARED)
        return False

    def _access_line(
        self, core: int, line: int, is_write: bool, burst: bool
    ) -> tuple[int, bool]:
        """One line access; returns ``(latency, hit_dram)``.  *burst* marks
        the access as part of a dense sequential miss run (pipelined DRAM
        pricing)."""
        st = self.stats[core]
        st.accesses += 1
        l1 = self.l1s[core]
        state = l1.lookup(line)
        cfg = self.l1cfg

        if state is not None:
            if not is_write:
                st.l1_hits += 1
                st.cycles += cfg.read_latency
                return cfg.read_latency, False
            # Write hit.
            if state == MODIFIED:
                st.l1_hits += 1
                st.cycles += cfg.write_latency
                return cfg.write_latency, False
            if state == EXCLUSIVE:
                l1.set_state(line, MODIFIED)
                self._owner[line] = core
                st.l1_hits += 1
                st.cycles += cfg.write_latency
                return cfg.write_latency, False
            # SHARED: upgrade — invalidate other sharers over the bus.
            # This is still an L1 hit (the data is local); the upgrade is
            # the extra ownership transaction.
            self._invalidate_others(core, line)
            l1.set_state(line, MODIFIED)
            self._owner[line] = core
            st.l1_hits += 1
            st.upgrades += 1
            lat = cfg.write_latency + self.mem.upgrade_latency
            st.cycles += lat
            return lat, False

        # L1 miss.  Consult the directory for a remote *Modified* owner
        # (dirty either in the owner's L1 or, after eviction, in its L2).
        owner = self._owner.get(line)
        if owner is not None and owner != core:
            # Cache-to-cache transfer (coherence miss).
            if is_write:
                # Request-for-ownership: dirty copy and any sharers die.
                self._invalidate_others(core, line)
                self._owner.pop(line, None)
                new_state = MODIFIED
            else:
                # Owner downgrades to SHARED (if the copy is still in its
                # L1); the dirty data is written back to the owner's L2.
                if line in self.l1s[owner]:
                    self.l1s[owner].set_state(line, SHARED)
                self.l2s[self.l2_groups[owner]].insert(line, SHARED)
                del self._owner[line]
                new_state = SHARED
            self._l2_fill(core, line)
            self._install(core, line, new_state)
            st.coherence_misses += 1
            lat = self.mem.cache_to_cache_latency + self.l1cfg.read_latency
            st.cycles += lat
            return lat, False

        if is_write:
            # Request-for-ownership: other S/E copies must be invalidated.
            self._invalidate_others(core, line)

        l2_hit = self._l2_fill(core, line)
        sharers = self._sharers.get(line)
        other_sharers = bool(sharers) and any(c != core for c in sharers)
        if is_write:
            new_state = MODIFIED
        else:
            new_state = SHARED if other_sharers else EXCLUSIVE
            if other_sharers:
                # Remote Exclusive copies downgrade to Shared on a snooped
                # read (clean transfer, no latency penalty beyond the L2
                # or memory fill already charged).
                for other in sharers:
                    if other != core and self.l1s[other].lookup(line, touch=False) == EXCLUSIVE:
                        self.l1s[other].set_state(line, SHARED)
        self._install(core, line, new_state)
        if l2_hit:
            st.l2_hits += 1
            lat = self.l1cfg.read_latency + self.l2cfg.read_latency
            dram = False
        elif burst:
            # Streaming fill: the L2 and DRAM stages of consecutive-line
            # misses are pipelined behind the previous miss; only the
            # per-line burst cost reaches the core.
            st.mem_misses += 1
            lat = self.l1cfg.read_latency + self.mem.dram_burst_latency
            dram = True
        else:
            st.mem_misses += 1
            lat = (
                self.l1cfg.read_latency
                + self.l2cfg.read_latency
                + self.mem.dram_latency
            )
            dram = True
        st.cycles += lat
        return lat, dram

    def _invalidate_others(self, core: int, line: int) -> None:
        sharers = self._sharers.get(line)
        if not sharers:
            return
        for other in list(sharers):
            if other == core:
                continue
            self.l1s[other].invalidate(line)
            sharers.discard(other)
            if self._owner.get(line) == other:
                del self._owner[line]
        if not sharers:
            self._sharers.pop(line, None)

    # -- bulk interfaces ---------------------------------------------------
    def run_op(self, core: int, op: _RangeOp) -> int:
        """Process one range sweep; returns total cycles.

        Dense sweeps (stride <= line size) stream: after the first DRAM
        miss of a consecutive run, subsequent consecutive-line DRAM misses
        are priced at the pipelined burst latency.
        """
        total = 0
        base = self._bases[op.region.name]
        ls = self.line_size
        dense = op.stride <= ls
        for _ in range(op.reps):
            prev_dram_line = None
            for li in op.line_indices(ls):
                line = base + li * ls
                burst = dense and prev_dram_line == line - ls
                lat, dram = self._access_line(core, line, op.is_write, burst=burst)
                prev_dram_line = line if dram else None
                total += lat
        return total

    def run_summary(self, core: int, summary: AccessSummary) -> int:
        """Process a DThread's whole access summary; returns cycles."""
        return sum(self.run_op(core, op) for op in summary)

    # -- invariant checking (used by property tests) -----------------------
    def check_invariants(self) -> None:
        """Assert MESI single-writer/multi-reader invariants."""
        seen: dict[int, list[tuple[int, str]]] = {}
        for core, l1 in enumerate(self.l1s):
            for s in l1._sets.values():
                for line, state in s.items():
                    seen.setdefault(line, []).append((core, state))
        for line, holders in seen.items():
            states = [st for (_c, st) in holders]
            if any(st in (MODIFIED, EXCLUSIVE) for st in states):
                assert len(holders) == 1, (
                    f"line {line:#x} M/E with multiple holders: {holders}"
                )
            owner = self._owner.get(line)
            if MODIFIED in states:
                assert owner == holders[0][0], (
                    f"directory owner {owner} disagrees with L1 state at {line:#x}"
                )
            dir_sharers = self._sharers.get(line, set())
            assert {c for c, _ in holders} <= dir_sharers, (
                f"directory sharers stale for line {line:#x}"
            )

    def total_stats(self) -> CacheStats:
        agg = CacheStats()
        for s in self.stats:
            agg.merge(s)
        return agg
