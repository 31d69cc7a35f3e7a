"""Reference cache simulator.

A straightforward, obviously-correct set-associative LRU simulator used as
the ground truth for property-testing the fast engines and for small
examples.  It implements all four write policies (see :meth:`access`).

For production trace volumes use :mod:`repro.cache.fastsim`, which is
behaviourally identical (verified by tests) but processes numpy chunks;
it serves every write-allocate cache, this class the rest.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.instrument import record_chunk
from repro.cache.stats import CacheStats
from repro.obs.runtime import is_enabled as _obs_enabled


class _Line:
    """One resident cache line."""

    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int, dirty: bool):
        self.tag = tag
        self.dirty = dirty


class ReferenceCache:
    """Set-associative LRU cache, one access at a time, any write policy."""

    engine_label = "reference"

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._sets: List[List[_Line]] = [[] for _ in range(config.num_sets)]
        self._seen_lines: Set[int] = set()

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.stats = CacheStats()
        self._sets = [[] for _ in range(self.config.num_sets)]
        self._seen_lines = set()

    def access(self, address: int, is_write: bool = False) -> bool:
        """Perform one access; returns True on a miss.

        Policies: with ``write_back`` False (write-through), every write
        also goes to memory (counted in ``writebacks``) and lines are
        never dirty.  With ``write_allocate`` False, a write miss bypasses
        the cache entirely (no fill, no eviction).
        """
        line_addr = address // self.config.line_bytes
        set_index = line_addr % self.config.num_sets
        ways = self._sets[set_index]

        self.stats.accesses += 1
        if is_write:
            self.stats.writes += 1
            if not self.config.write_back:
                self.stats.writebacks += 1  # write-through traffic
        else:
            self.stats.reads += 1

        for pos, line in enumerate(ways):
            if line.tag == line_addr:
                # Hit: move to MRU position (end of list).
                ways.append(ways.pop(pos))
                if is_write and self.config.write_back:
                    line.dirty = True
                return False

        # Miss.
        self.stats.misses += 1
        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        if line_addr not in self._seen_lines:
            self._seen_lines.add(line_addr)
            self.stats.cold_misses += 1
        if is_write and not self.config.write_allocate:
            return True  # bypass: no fill
        if len(ways) >= self.config.associativity:
            victim = ways.pop(0)
            if victim.dirty:
                self.stats.writebacks += 1
        ways.append(_Line(line_addr, is_write and self.config.write_back))
        return True

    def access_chunk(
        self,
        addresses: Sequence[int],
        writes: Optional[Sequence[bool]] = None,
    ) -> np.ndarray:
        """Access a chunk of addresses; returns the per-access miss mask."""
        addresses = np.asarray(addresses)
        if writes is None:
            writes = np.zeros(len(addresses), dtype=bool)
        else:
            writes = np.asarray(writes, dtype=bool)
        t0 = time.perf_counter() if _obs_enabled() else None
        misses = np.empty(len(addresses), dtype=bool)
        for i in range(len(addresses)):
            misses[i] = self.access(int(addresses[i]), bool(writes[i]))
        if t0 is not None:
            record_chunk(
                self.engine_label, len(addresses), int(np.sum(misses)),
                time.perf_counter() - t0,
            )
        return misses

    def access_stream(self, chunks) -> "CacheStats":
        """Drain an iterable of (addresses, writes) chunks; returns stats."""
        for addrs, writes in chunks:
            self.access_chunk(addrs, writes)
        return self.stats

    def resident_lines(self) -> Set[int]:
        """Line addresses currently cached (for tests)."""
        return {line.tag for ways in self._sets for line in ways}

    def lru_order(self, set_index: int) -> List[int]:
        """Tags of one set from LRU to MRU (for tests)."""
        return [line.tag for line in self._sets[set_index]]
