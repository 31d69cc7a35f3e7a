"""Trace-JIT throughput benchmarks.

Not a paper figure: measures the compiled batch generators against the
plain interpreter on the interpreter's worst case — deep nests with tiny
innermost trip counts, where the per-iteration Python dispatch dominates.
The CI gate lives in ``scripts/bench_snapshot.py --compare``; these
pytest-benchmark probes exist for local profiling of the same corpus.
"""

import numpy as np
import pytest

from repro.cache.config import base_cache
from repro.cache.fastsim import make_simulator
from repro.jit import make_interpreter
from repro.bench.corpus import perf_corpus

CASES = {prog.name: (prog, layout) for prog, layout in perf_corpus()}


def trace_total(prog, layout, jit):
    total = 0
    for addrs, _ in make_interpreter(prog, layout, jit=jit).trace():
        total += len(addrs)
    return total


@pytest.mark.parametrize("jit", ("off", "on"))
def test_deep_nest_trace_throughput(benchmark, jit):
    prog, layout = CASES["perf_deep4_narrow"]
    expected = make_interpreter(prog, layout, jit="off").count_accesses()
    total = benchmark(trace_total, prog, layout, jit)
    assert total == expected


@pytest.mark.parametrize("jit", ("off", "on"))
def test_wide_inner_trace_throughput(benchmark, jit):
    prog, layout = CASES["perf_deep2"]
    expected = make_interpreter(prog, layout, jit="off").count_accesses()
    total = benchmark(trace_total, prog, layout, jit)
    assert total == expected


@pytest.mark.parametrize("jit", ("off", "on"))
def test_end_to_end_simulate_throughput(benchmark, jit):
    prog, layout = CASES["perf_deep3_narrow"]

    def run():
        sim = make_simulator(base_cache())
        return sim.access_stream(
            make_interpreter(prog, layout, jit=jit).trace()
        ).misses

    misses = benchmark(run)
    assert misses > 0


def test_jit_stream_matches_interpreter_on_perf_corpus():
    for name, (prog, layout) in CASES.items():
        off = np.concatenate(
            [a for a, _ in make_interpreter(prog, layout, jit="off").trace()]
        )
        on = np.concatenate(
            [a for a, _ in make_interpreter(prog, layout, jit="on").trace()]
        )
        assert np.array_equal(on, off), name
