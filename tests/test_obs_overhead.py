"""Overhead guard: disabled metrics must not slow the fast simulators.

The instrumentation promise is a single module-level flag test per hot
call when collection is off.  These tests check that promise directly
instead of timing it: over a one-million-access trace with metrics
disabled, the fast direct-mapped engine tests the flag exactly once per
``access_chunk``, never reads the clock, and creates no instruments.
"""

from __future__ import annotations

import types

import numpy as np

from repro.cache import fastsim
from repro.cache.config import CacheConfig
from repro.obs import runtime as obs

TRACE_LENGTH = 1_000_000
CHUNK = 65_536
CHUNKS = -(-TRACE_LENGTH // CHUNK)


def _trace():
    rng = np.random.default_rng(20260806)
    addresses = rng.integers(0, 1 << 20, size=TRACE_LENGTH, dtype=np.int64)
    writes = rng.random(TRACE_LENGTH) < 0.25
    return addresses, writes


def _simulate(addresses, writes) -> None:
    sim = fastsim.make_simulator(CacheConfig(16 * 1024, 32, 1))
    for lo in range(0, TRACE_LENGTH, CHUNK):
        sim.access_chunk(addresses[lo:lo + CHUNK], writes[lo:lo + CHUNK])


def test_disabled_metrics_overhead_within_budget(monkeypatch):
    obs.disable()
    obs.reset()
    addresses, writes = _trace()
    flag_tests = []
    clock_reads = []

    def counting_flag():
        flag_tests.append(1)
        return obs.is_enabled()

    def counting_clock():
        clock_reads.append(1)
        return 0.0

    monkeypatch.setattr(fastsim, "_obs_enabled", counting_flag)
    monkeypatch.setattr(
        fastsim, "time", types.SimpleNamespace(perf_counter=counting_clock)
    )
    _simulate(addresses, writes)
    assert len(flag_tests) == CHUNKS
    assert clock_reads == []
    assert len(obs.registry()) == 0


def test_disabled_hot_paths_allocate_nothing():
    """The flag test is the whole cost: no instruments appear."""
    obs.disable()
    obs.reset()
    addresses, writes = _trace()
    _simulate(addresses, writes)
    assert len(obs.registry()) == 0
