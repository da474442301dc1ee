"""The fast memory model as ``docs/simulation.md`` states it.

Written from the "Memory hierarchy" section alone: "One sweep of the fast
model", the latencies, the dense-stream DRAM rule and "1-based
timestamps".  Python ints, dicts and sets: no sharer words, presence
word, routes or pending ramps, and nothing from ``repro`` but the two
configurations and the statistics record.  Where it and
``repro.sim.fastcache`` disagree, the docs decide.
"""

from repro.sim.cache import CacheConfig, CacheStats, MemoryConfig

__all__ = ["ReferenceMemory"]


class ReferenceMemory:
    """``l1[core][region]`` and ``l2[group][region]`` map a line to its
    fill time (absent: never filled); ``owner[region]`` maps a line to the
    core holding it Modified and ``sharers[region]`` to the cores with a
    valid copy.  A single issuer keeps no owners or sharers."""

    def __init__(
        self, ncores: int, l1: CacheConfig, l2: CacheConfig, mem: MemoryConfig,
        l2_groups: list[int] | None = None, single_issuer: bool = False,
    ) -> None:
        self.line_size = l1.line_size
        self.l1_lines = l1.size // l1.line_size
        self.l2_lines = l2.size // l1.line_size
        self.group = list(l2_groups) if l2_groups is not None else list(range(ncores))
        ngroups = max(self.group) + 1
        self.coherent = not single_issuer and ncores > 1
        self.read_hit, self.write_hit = l1.read_latency, l1.write_latency
        self.upgrade = mem.upgrade_latency
        self.transfer = mem.cache_to_cache_latency + l1.read_latency
        self.l2_hit = l1.read_latency + l2.read_latency
        self.dram = l1.read_latency + l2.read_latency + mem.dram_latency
        self.burst = l1.read_latency + mem.dram_burst_latency
        self.clock, self.l2_clock = [1] * ncores, [1] * ngroups
        self.holes = [0] * ncores
        self.l1: list[dict[str, dict[int, int]]] = [{} for _ in range(ncores)]
        self.l2: list[dict[str, dict[int, int]]] = [{} for _ in range(ngroups)]
        self.owner: dict[str, dict[int, int]] = {}
        self.sharers: dict[str, dict[int, set[int]]] = {}
        self.stats = [CacheStats() for _ in range(ncores)]

    def lines(self, op) -> list[int] | range:
        """The lines one sweep of *op* touches: from its first element's
        to its last's when dense (stride at most a line), else those its
        elements span."""
        size = self.line_size
        if op.count and op.stride <= size:
            end = op.offset + (op.count - 1) * op.stride + op.elem_size
            return range(op.offset // size, (end - 1) // size + 1)
        touched = set()
        for i in range(op.count):
            start = op.offset + i * op.stride
            touched.update(range(start // size, (start + op.elem_size - 1) // size + 1))
        return sorted(touched)

    def run_op(self, core: int, op) -> int:
        lines = self.lines(op)
        cycles = 0
        for rep in range(op.reps):
            if rep and len(lines) <= self.l1_lines:
                # The rest are L1 hits that change nothing.
                more = (op.reps - rep) * len(lines)
                repeat = more * (self.write_hit if op.is_write else self.read_hit)
                st = self.stats[core]
                st.accesses += more
                st.l1_hits += more
                st.cycles += repeat
                return cycles + repeat
            cycles += self._sweep(
                core, op.region.name, lines, op.is_write, op.stride <= self.line_size
            )
        return cycles

    def _sweep(self, core: int, region: str, lines, write: bool, dense: bool) -> int:
        if not lines:
            return 0
        group = self.group[core]
        l1 = self.l1[core].setdefault(region, {})
        l2 = self.l2[group].setdefault(region, {})
        owner = self.owner.setdefault(region, {})
        sharers = self.sharers.setdefault(region, {})
        # Read at entry.  Resident: filled within the last capacity fills.
        clock, l2_clock, holes = self.clock[core], self.l2_clock[group], self.holes[core]
        oldest1, oldest2 = clock - self.l1_lines, l2_clock - self.l2_lines
        l2_clocks = list(self.l2_clock)
        st = self.stats[core]
        cycles = fills = l2_fills = 0
        after_dram = False
        for line in lines:
            copies = sharers.get(line) if self.coherent else None
            hit = l1.get(line, oldest1) > oldest1 and (
                not self.coherent or copies is not None and core in copies
            )
            dram = False
            if hit:
                st.l1_hits += 1
                cycles += self.write_hit if write else self.read_hit
                if write and copies is not None and len(copies) > 1:
                    st.upgrades += 1
                    cycles += self.upgrade
            else:
                fills += 1
                holder = owner.get(line) if self.coherent else None
                if holder is not None and holder != core:
                    st.coherence_misses += 1
                    cycles += self.transfer
                    l2_fills += 1
                    if not write:  # downgrade
                        del owner[line]
                        og = self.group[holder]
                        self.l2[og].setdefault(region, {})[line] = l2_clocks[og]
                elif l2.get(line, oldest2) > oldest2:
                    st.l2_hits += 1
                    cycles += self.l2_hit
                else:
                    st.mem_misses += 1
                    l2_fills += 1
                    dram = True
                    cycles += self.burst if dense and after_dram else self.dram
            after_dram = dram
            l1[line] = clock + max(fills - holes, 0)
            l2[line] = l2_clock + l2_fills
            if not self.coherent:
                continue
            if write:
                for other in copies or ():
                    times = self.l1[other].get(region, {})
                    oldest = self.clock[other] - self.l1_lines
                    if other != core and times.get(line, oldest) > oldest:
                        self.holes[other] += 1
                sharers[line] = {core}
                owner[line] = core
            elif copies is None:
                sharers[line] = {core}
            else:
                copies.add(core)
        st.accesses += len(lines)
        st.cycles += cycles
        self.clock[core] = clock + max(fills - holes, 0)
        self.holes[core] = max(holes - fills, 0)
        self.l2_clock[group] = l2_clock + l2_fills
        return cycles
