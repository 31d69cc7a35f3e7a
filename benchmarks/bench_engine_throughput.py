"""Substrate throughput benchmarks.

Not a paper figure: these measure the reproduction's own machinery —
trace generation and the cache engine at 1, 2, 4 and 16 ways — so
performance regressions in the substrate are caught the same way result
regressions are.  The alternation case is the k >= 3 stack-distance
scan's worst case, kept visible on purpose.  Uses multiple rounds
(unlike the figure benches) since the workloads are small and
deterministic.
"""

import numpy as np
import pytest

from repro.bench.kernels import jacobi
from repro.cache.config import base_cache, set_associative
from repro.cache.fastsim import FastDirectMapped, FastSetAssociative
from repro.layout import original_layout
from repro.trace import TraceInterpreter


@pytest.fixture(scope="module")
def jacobi_trace():
    prog = jacobi(256)
    layout = original_layout(prog)
    parts = list(TraceInterpreter(prog, layout).trace())
    addrs = np.concatenate([a for a, _ in parts])
    writes = np.concatenate([w for _, w in parts])
    return addrs, writes


def test_trace_generation_throughput(benchmark):
    prog = jacobi(256)
    layout = original_layout(prog)

    def run():
        total = 0
        for addrs, _ in TraceInterpreter(prog, layout).trace():
            total += len(addrs)
        return total

    total = benchmark(run)
    assert total == 254 * 254 * 5 + 254 * 254 * 2


def test_direct_mapped_throughput(benchmark, jacobi_trace):
    addrs, writes = jacobi_trace

    def run():
        sim = FastDirectMapped(base_cache())
        sim.access_chunk(addrs, writes)
        return sim.stats.misses

    misses = benchmark(run)
    assert misses > 0


@pytest.mark.parametrize("ways", [2, 4])
def test_base_cache_assoc_throughput(benchmark, jacobi_trace, ways):
    """The paper's 16K cache at the associativities of its k-way study."""
    addrs, writes = jacobi_trace

    def run():
        sim = FastSetAssociative(base_cache().with_associativity(ways))
        sim.access_chunk(addrs, writes)
        return sim.stats.misses

    misses = benchmark(run)
    assert misses > 0


def test_long_alternation_throughput(benchmark):
    """Every set of a 16K 4-way cache alternates between two lines for
    ~1K accesses between returns to an older line, so each return's
    stack-distance window spans the whole alternation."""
    config = base_cache().with_associativity(4)
    stride = config.num_sets * config.line_bytes
    alternation = (4 + np.arange(1024) % 2) * stride
    older = np.arange(3) * stride
    one_set = np.concatenate([older, alternation] * 4)
    addrs = (one_set[None, :] + 32 * np.arange(config.num_sets)[:, None]).ravel()
    writes = np.zeros(len(addrs), dtype=bool)

    def run():
        sim = FastSetAssociative(config)
        sim.access_chunk(addrs, writes)
        return sim.stats.misses

    misses = benchmark(run)
    assert misses < len(addrs) // 100


def test_set_associative_throughput(benchmark, jacobi_trace):
    addrs, writes = jacobi_trace

    def run():
        sim = FastSetAssociative(set_associative(16 * 1024, 16))
        sim.access_chunk(addrs, writes)
        return sim.stats.misses

    misses = benchmark(run)
    assert misses > 0
