"""Tests for the runner's persistent result store and a stack-distance
oracle check of LRU correctness."""

import numpy as np
import pytest

from repro.cache.config import direct_mapped, fully_associative
from repro.cache.fastsim import make_simulator
from repro.engine.store import CrashSafeStore
from repro.experiments.runner import Runner


class TestDiskCache:
    def test_results_survive_runner_restarts(self, tmp_path):
        path = tmp_path / "runner_cache.db"
        with CrashSafeStore(path) as store:
            first = Runner(store=store)
            stats = first.run("dot", "pad", direct_mapped(2048), size=128)
        assert path.exists()

        with CrashSafeStore(path) as store:
            second = Runner(store=store)
            again = second.run("dot", "pad", direct_mapped(2048), size=128)
            assert second.last_tier == "sqlite"
        assert again.misses == stats.misses
        assert again.accesses == stats.accesses
        # It really came from disk: no padding was computed.
        assert second._paddings == {}

    def test_different_requests_not_conflated(self, tmp_path):
        with CrashSafeStore(tmp_path / "runner_cache.db") as store:
            runner = Runner(store=store)
            a = runner.run("dot", "original", direct_mapped(2048), size=128)
            c = runner.run("dot", "original", direct_mapped(4096), size=128)
        assert a.misses != c.misses or a is not c

    def test_corrupt_store_tolerated(self, tmp_path):
        path = tmp_path / "runner_cache.db"
        path.write_text("{ not json")
        with CrashSafeStore(path) as store:
            runner = Runner(store=store)
            stats = runner.run("dot", "original", direct_mapped(2048), size=64)
        assert stats.accesses > 0

    def test_no_dir_means_memory_only(self):
        runner = Runner()
        assert runner._store is None


def _stack_distance_misses(line_addrs, capacity_lines):
    """Oracle: fully associative LRU misses via stack distances."""
    stack = []
    misses = 0
    for line in line_addrs:
        if line in stack:
            depth = stack.index(line)
            if depth >= capacity_lines:
                misses += 1
            stack.remove(line)
        else:
            misses += 1
        stack.insert(0, line)
    return misses


class TestStackDistanceOracle:
    @pytest.mark.parametrize("capacity_lines", [4, 16, 64])
    def test_fully_associative_matches_oracle(self, capacity_lines):
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 4096, size=2500) * 8
        lines = (addrs // 32).tolist()
        config = fully_associative(capacity_lines * 32, 32)
        sim = make_simulator(config)
        sim.access_chunk(addrs, np.zeros(len(addrs), dtype=bool))
        assert sim.stats.misses == _stack_distance_misses(lines, capacity_lines)

    def test_oracle_on_cyclic_pattern(self):
        """Classic LRU pathology: cycling through capacity+1 lines misses
        every access; both the oracle and the simulator agree."""
        capacity = 8
        lines = list(range(capacity + 1)) * 10
        addrs = np.array(lines) * 32
        sim = make_simulator(fully_associative(capacity * 32, 32))
        sim.access_chunk(addrs, np.zeros(len(addrs), dtype=bool))
        expected = _stack_distance_misses(lines, capacity)
        assert sim.stats.misses == expected == len(lines)
