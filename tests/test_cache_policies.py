"""Tests for write-through / no-write-allocate cache policies."""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.fastsim import make_simulator
from repro.cache.sim import ReferenceCache


def _cfg(**kw):
    return CacheConfig(size_bytes=1024, line_bytes=32, associativity=1, **kw)


class TestWriteThrough:
    def test_every_write_reaches_memory(self):
        c = ReferenceCache(_cfg(write_back=False))
        c.access(0, is_write=True)
        c.access(0, is_write=True)
        c.access(0, is_write=True)
        assert c.stats.writebacks == 3

    def test_no_dirty_eviction_traffic(self):
        c = ReferenceCache(_cfg(write_back=False))
        c.access(0, is_write=True)
        c.access(1024)  # evicts line 0 — clean under write-through
        assert c.stats.writebacks == 1  # only the original write

    def test_writeback_cache_defers(self):
        c = ReferenceCache(_cfg())
        c.access(0, is_write=True)
        c.access(0, is_write=True)
        assert c.stats.writebacks == 0
        c.access(1024)
        assert c.stats.writebacks == 1


class TestNoWriteAllocate:
    def test_write_miss_bypasses(self):
        c = ReferenceCache(_cfg(write_allocate=False, write_back=False))
        assert c.access(0, is_write=True) is True
        # The line was not filled: the read still misses.
        assert c.access(0, is_write=False) is True
        # And now it is resident (read allocated it).
        assert c.access(0, is_write=False) is False

    def test_write_hit_still_hits(self):
        c = ReferenceCache(_cfg(write_allocate=False, write_back=False))
        c.access(0)  # read fill
        assert c.access(0, is_write=True) is False

    def test_bypass_does_not_evict(self):
        c = ReferenceCache(_cfg(write_allocate=False, write_back=False))
        c.access(0)  # resident
        c.access(1024, is_write=True)  # same set, bypassed
        assert c.access(0) is False  # line 0 survived


class TestDispatch:
    def test_exotic_policy_uses_reference(self):
        """Only write-no-allocate is exotic: the fast engine models
        write-through, and a write miss that bypasses the cache needs
        the reference simulator."""
        sim = make_simulator(_cfg(write_back=False))
        assert not isinstance(sim, ReferenceCache)
        sim = make_simulator(_cfg(write_allocate=False, write_back=False))
        assert isinstance(sim, ReferenceCache)
        sim = make_simulator(_cfg(write_allocate=False))
        assert isinstance(sim, ReferenceCache)

    def test_default_policy_uses_fast_engine(self):
        sim = make_simulator(_cfg())
        assert not isinstance(sim, ReferenceCache)

    def test_policies_change_miss_profile(self):
        """The paper's write-allocate assumption matters: under
        no-write-allocate, a write-only conflict pair stops thrashing."""
        trace = [(0, True), (1024, True)] * 50
        wa = ReferenceCache(_cfg())
        nwa = ReferenceCache(_cfg(write_allocate=False, write_back=False))
        for addr, w in trace:
            wa.access(addr, w)
            nwa.access(addr, w)
        assert wa.stats.misses == 100  # allocate + thrash
        assert nwa.stats.misses == 100  # all miss but no thrash cost
        assert wa.stats.writebacks > 0
        # Every nwa write went straight to memory:
        assert nwa.stats.writebacks == 100
