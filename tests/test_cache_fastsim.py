"""Property tests: the fast engines are access-for-access identical to the
reference simulator, including write-back and cold-miss accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig, direct_mapped, set_associative
from repro.cache.fastsim import FastDirectMapped, FastSetAssociative, make_simulator
from repro.cache.sim import ReferenceCache
from repro.errors import SimulationError


def _compare(config, addrs, writes, chunk=257):
    fast = make_simulator(config)
    ref = ReferenceCache(config)
    for i in range(0, len(addrs), chunk):
        mf = fast.access_chunk(addrs[i : i + chunk], writes[i : i + chunk])
        mr = ref.access_chunk(addrs[i : i + chunk], writes[i : i + chunk])
        assert np.array_equal(mf, mr)
    assert fast.stats.accesses == ref.stats.accesses
    assert fast.stats.misses == ref.stats.misses
    assert fast.stats.reads == ref.stats.reads
    assert fast.stats.writes == ref.stats.writes
    assert fast.stats.read_misses == ref.stats.read_misses
    assert fast.stats.write_misses == ref.stats.write_misses
    assert fast.stats.cold_misses == ref.stats.cold_misses
    assert fast.stats.writebacks == ref.stats.writebacks


class TestEngineSelection:
    def test_direct_mapped_engine(self):
        assert isinstance(make_simulator(direct_mapped(1024)), FastDirectMapped)

    def test_assoc_engine(self):
        assert isinstance(make_simulator(set_associative(1024, 4)), FastSetAssociative)

    def test_dm_engine_rejects_assoc_config(self):
        with pytest.raises(SimulationError):
            FastDirectMapped(set_associative(1024, 4))


class TestKnownSequences:
    def test_dm_conflict_sequence(self):
        fast = FastDirectMapped(direct_mapped(1024, 32))
        misses = fast.access_chunk([0, 1024, 0, 1024], [False] * 4)
        assert list(misses) == [True, True, True, True]

    def test_dm_spatial_hits(self):
        fast = FastDirectMapped(direct_mapped(1024, 32))
        misses = fast.access_chunk([0, 8, 16, 24, 32], [False] * 5)
        assert list(misses) == [True, False, False, False, True]

    def test_state_carries_across_chunks(self):
        fast = FastDirectMapped(direct_mapped(1024, 32))
        fast.access_chunk([0], [True])
        misses = fast.access_chunk([0], [False])
        assert not misses[0]
        fast.access_chunk([1024], [False])  # evict dirty line 0
        assert fast.stats.writebacks == 1

    def test_assoc_run_dedup_correct(self):
        """Repeated same-line accesses inside one chunk are hits."""
        fast = FastSetAssociative(set_associative(1024, 4, 32))
        misses = fast.access_chunk([0, 0, 0, 4, 1024, 1024], [False] * 6)
        assert list(misses) == [True, False, False, False, True, False]

    def test_assoc_dirty_from_run_member(self):
        """A write anywhere in a run marks the line dirty."""
        fast = FastSetAssociative(set_associative(64, 2, 32))
        fast.access_chunk([0, 4], [False, True])  # read then write same line
        fast.access_chunk([64, 128], [False, False])  # evict line 0 (dirty)
        assert fast.stats.writebacks == 1

    def test_empty_chunk(self):
        fast = make_simulator(direct_mapped(1024))
        assert len(fast.access_chunk([], [])) == 0
        assert fast.stats.accesses == 0

    def test_single_access_api(self):
        fast = make_simulator(direct_mapped(1024))
        assert fast.access(0) is True
        assert fast.access(0) is False

    def test_reset(self):
        for config in (direct_mapped(1024), set_associative(1024, 4)):
            fast = make_simulator(config)
            fast.access_chunk([0, 32, 0], [True, False, False])
            fast.reset()
            assert fast.stats.accesses == 0
            assert fast.access(0) is True

    def test_mismatched_chunk_shapes(self):
        fast = make_simulator(direct_mapped(1024))
        with pytest.raises(SimulationError):
            fast.access_chunk([0, 32], [True])


@st.composite
def trace_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=400))
    # Addresses concentrated in a small range to force conflicts and reuse.
    addrs = draw(
        st.lists(
            st.integers(min_value=0, max_value=8192), min_size=n, max_size=n
        )
    )
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(addrs, dtype=np.int64), np.array(writes, dtype=bool)


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(trace=trace_strategy(), log_size=st.integers(6, 11))
    def test_direct_mapped_equivalence(self, trace, log_size):
        addrs, writes = trace
        _compare(direct_mapped(1 << log_size, 32), addrs, writes)

    @settings(max_examples=60, deadline=None)
    @given(
        trace=trace_strategy(),
        log_size=st.integers(7, 11),
        log_ways=st.integers(1, 4),
    )
    def test_assoc_equivalence(self, trace, log_size, log_ways):
        addrs, writes = trace
        size = 1 << log_size
        ways = min(1 << log_ways, size // 32)
        _compare(set_associative(size, ways, 32), addrs, writes)

    @settings(max_examples=40, deadline=None)
    @given(
        trace=trace_strategy(),
        log_sets=st.integers(1, 4),
        log_ways=st.integers(3, 4),
        chunk=st.integers(1, 300),
    )
    def test_wide_assoc_negative_addresses(self, trace, log_sets, log_ways, chunk):
        """8/16-way multi-set caches over a trace shifted below zero."""
        addrs, writes = trace
        ways = 1 << log_ways
        config = set_associative((16 << log_sets) * ways, ways, 16)
        _compare(config, addrs - 4096, writes, chunk=chunk)

    @settings(max_examples=30, deadline=None)
    @given(trace=trace_strategy())
    def test_spatial_run_traces(self, trace):
        """Traces with heavy run structure (the dedup fast path)."""
        addrs, writes = trace
        addrs = np.repeat(addrs, 3)
        writes = np.repeat(writes, 3)
        _compare(set_associative(512, 4, 32), addrs, writes, chunk=100)

    @settings(max_examples=30, deadline=None)
    @given(trace=trace_strategy(), chunk=st.integers(1, 50))
    def test_chunking_invariance(self, trace, chunk):
        """Results are independent of how the trace is chunked."""
        addrs, writes = trace
        one = make_simulator(direct_mapped(512, 32))
        many = make_simulator(direct_mapped(512, 32))
        all_misses = one.access_chunk(addrs, writes)
        parts = []
        for i in range(0, len(addrs), chunk):
            parts.append(many.access_chunk(addrs[i : i + chunk], writes[i : i + chunk]))
        assert np.array_equal(all_misses, np.concatenate(parts))
        assert one.stats.misses == many.stats.misses
        assert one.stats.writebacks == many.stats.writebacks


class TestExtremeAddresses:
    @pytest.mark.parametrize("line,ways", [(1, 1), (1, 4), (32, 2)])
    def test_int64_wide_address_span(self, line, ways):
        """Lines spread over most of int64 cannot be packed with their
        positions into one sort key; the argsort fallbacks stay exact."""
        rng = np.random.default_rng(3)
        far = np.array([-(1 << 62), 1 << 62, 0, 5], dtype=np.int64)
        pool = np.concatenate((far, far + 256, np.arange(64)))
        addrs = rng.choice(pool, size=600)
        writes = rng.random(600) < 0.3
        _compare(set_associative(256 * ways, ways, line), addrs, writes, chunk=97)


class TestProgramLevelEquivalence:
    def test_jacobi_trace_all_engines_agree(self):
        """Program-scale cross-check: both fast engines equal the
        reference simulator on a real kernel trace."""
        from repro.bench.kernels import jacobi
        from repro.layout import original_layout
        from repro.trace import trace_addresses

        prog = jacobi(24)
        addrs, writes = trace_addresses(prog, original_layout(prog))
        for config in (direct_mapped(1024, 32), set_associative(1024, 4, 32)):
            _compare(config, addrs, writes, chunk=501)
