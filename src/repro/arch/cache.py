"""Cache hierarchy model: split 8 KiB 4-way L1 I/D caches over a shared
256 KiB 8-way L2, backed by a fixed-latency DRAM (the DRAMSim substitution —
see DESIGN.md).  LRU replacement, 32-byte lines.

``access`` returns the level that served the request ("l1" / "l2" / "mem"),
which the machine model converts into stall cycles and energy events.  A
last-line fast path keeps the common sequential-fetch case cheap in the
pure-Python simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

LINE_BYTES = 32
L1_LINE_SHIFT = 5


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


def set_count(size_bytes: int, ways: int) -> int:
    """Sets of a ``size_bytes``/``ways`` cache; ``ValueError`` if none can be."""
    if size_bytes % (ways * LINE_BYTES):
        raise ValueError("cache size must divide into ways * line size")
    sets = size_bytes // (ways * LINE_BYTES)
    if sets & (sets - 1):
        raise ValueError("set count must be a power of two")
    return sets


class Cache:
    """A set-associative LRU cache over 32-byte lines."""

    def __init__(self, size_bytes: int, ways: int, name: str = "cache") -> None:
        self.name = name
        self.ways = ways
        self.sets = set_count(size_bytes, ways)
        self._set_mask = self.sets - 1
        #: per set: list of tags, most recently used last
        self._lines: list[list[int]] = [[] for _ in range(self.sets)]
        self.stats = CacheStats()
        self._last_line = -1

    def lookup(self, addr: int) -> bool:
        """Access ``addr``; returns True on hit.  Fills on miss."""
        line = addr >> L1_LINE_SHIFT
        if line == self._last_line:
            self.stats.accesses += 1
            return True
        self._last_line = line
        self.stats.accesses += 1
        index = line & self._set_mask
        tag = line >> 0
        ways = self._lines[index]
        if tag in ways:
            if ways[-1] != tag:
                ways.remove(tag)
                ways.append(tag)
            return True
        self.stats.misses += 1
        ways.append(tag)
        if len(ways) > self.ways:
            ways.pop(0)
        return False

    def reset_fastpath(self) -> None:
        self._last_line = -1


@dataclass(frozen=True)
class CacheGeometry:
    """Sweepable cache configuration (sizes in KiB; defaults match §4.1)."""

    l1_kb: int = 8
    l1_ways: int = 4
    l2_kb: int = 256
    l2_ways: int = 8

    def validate(self) -> "CacheGeometry":
        # Check both levels by arithmetic, building no set list, so bad
        # geometry fails loudly at configuration time, not mid-simulation.
        set_count(self.l1_kb * 1024, self.l1_ways)
        set_count(self.l2_kb * 1024, self.l2_ways)
        return self


class MemoryHierarchy:
    """I$/D$ + shared L2 + DRAM; returns the serving level per access."""

    def __init__(self, geometry: CacheGeometry = None) -> None:
        g = geometry or CacheGeometry()
        self.geometry = g
        self.icache = Cache(g.l1_kb * 1024, g.l1_ways, "icache")
        self.dcache = Cache(g.l1_kb * 1024, g.l1_ways, "dcache")
        self.l2 = Cache(g.l2_kb * 1024, g.l2_ways, "l2")
        self.dram_accesses = 0

    def fetch(self, addr: int) -> str:
        if self.icache.lookup(addr):
            return "l1"
        self.l2.reset_fastpath()
        if self.l2.lookup(addr):
            return "l2"
        self.dram_accesses += 1
        return "mem"

    def data_access(self, addr: int) -> str:
        if self.dcache.lookup(addr):
            return "l1"
        self.l2.reset_fastpath()
        if self.l2.lookup(addr):
            return "l2"
        self.dram_accesses += 1
        return "mem"
