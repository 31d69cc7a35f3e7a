"""Overhead guard: ``--guard off`` must do no guarded work.

With no guard active the runner's only extra work per execution is one
``guard_runtime.active_config()`` thread-local lookup and a ``None``
test — everything else (baseline re-simulation, cell-stream replay,
invariant sweep, sanitizer) is gated behind it.  The test counts that
work instead of timing it, so it is deterministic under any load: with
the guard off one ``execute()`` builds exactly one simulator, calls
neither ``check_transform`` nor ``sanitize``, and simulates exactly as
many accesses as the same path with the lookup hoisted to a constant
(what the pre-guard runner did).  A guard-on run of the same request is
the positive control: the same counters must see its extra work.
"""

from __future__ import annotations

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.runner import Runner
from repro.guard import GuardConfig
from repro.guard import core as guard_core

pytestmark = pytest.mark.guard

#: dgefa's trace is ~1.5M accesses — comfortably past the 1M bar.
WORKLOAD = "dgefa"


class WorkCounter:
    """Counts simulators built, accesses simulated and guard calls."""

    def __init__(self, monkeypatch):
        self.simulators = self.accesses = self.checks = self.sanitizes = 0
        make_simulator = runner_mod.make_simulator
        check_transform = guard_core.check_transform
        sanitize = guard_core.sanitize

        def counted_make(config):
            sim = make_simulator(config)
            self.simulators += 1
            access_chunk = sim.access_chunk

            def counted_chunk(addrs, writes=None):
                self.accesses += len(addrs)
                return access_chunk(addrs, writes)

            sim.access_chunk = counted_chunk
            return sim

        def counted_check(*args, **kwargs):
            self.checks += 1
            return check_transform(*args, **kwargs)

        def counted_sanitize(*args, **kwargs):
            self.sanitizes += 1
            return sanitize(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "make_simulator", counted_make)
        monkeypatch.setattr(guard_core, "check_transform", counted_check)
        monkeypatch.setattr(guard_core, "sanitize", counted_sanitize)

    def measure(self, fn) -> dict:
        self.simulators = self.accesses = self.checks = self.sanitizes = 0
        fn()
        return {
            "simulators": self.simulators, "accesses": self.accesses,
            "checks": self.checks, "sanitizes": self.sanitizes,
        }


def test_guard_off_overhead_within_budget(monkeypatch):
    runner = Runner()
    request = runner.request_for(WORKLOAD, "pad")
    counter = WorkCounter(monkeypatch)

    assert runner_mod.guard_runtime.active_config() is None
    guard_off = counter.measure(lambda: runner.execute(request))
    assert guard_off["accesses"] >= 1_000_000
    assert guard_off == {
        "simulators": 1, "accesses": guard_off["accesses"],
        "checks": 0, "sanitizes": 0,
    }

    # Baseline: the identical path with the guard hook compiled away.
    with monkeypatch.context() as patch:
        patch.setattr(runner_mod.guard_runtime, "active_config", lambda: None)
        hoisted = counter.measure(lambda: runner.execute(request))
    assert guard_off == hoisted

    # Positive control: a guard-on execute shows up in every counter.
    def guarded():
        with runner_mod.guard_runtime.activated(GuardConfig(mode="warn")):
            runner.execute(request)

    guard_on = counter.measure(guarded)
    assert guard_on["checks"] == 1
    assert guard_on["sanitizes"] == 1
    assert guard_on["simulators"] >= 2  # the original-layout baseline too
    assert guard_on["accesses"] > guard_off["accesses"]


def test_guard_off_reports_nothing():
    runner = Runner()
    runner.run(WORKLOAD, "pad")
    assert runner.last_guard is None
