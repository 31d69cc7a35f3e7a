"""Self-healing machinery: breaker, pool supervision, degraded answers."""

import os
import signal
import sys
import threading

import pytest

from repro.chaos import clock
from repro.engine import EngineConfig, ExperimentEngine, WorkerPool
from repro.engine import pool as pool_module
from repro.errors import EngineError
from repro.experiments.runner import DEFAULT_RUNNER
from repro.obs import runtime as obs
from repro.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    degraded_run_record,
    degraded_simulate_source,
)

pytestmark = [pytest.mark.engine]

FAST = EngineConfig(jobs=2, timeout=120, retries=0, backoff_base=0)


def make_pool(monkeypatch, jobs=2, heartbeat_s=0.2, **constants):
    """A pool with module constants (``PING_TIMEOUT_S=...``) patched."""
    for name, value in constants.items():
        monkeypatch.setattr(pool_module, name, value)
    return WorkerPool(jobs=jobs, heartbeat_s=heartbeat_s)


class TestCircuitBreaker:
    POLICY = BreakerPolicy(failure_threshold=2, cooldown_s=1.0,
                           cooldown_factor=2.0, cooldown_cap_s=8.0)

    def test_closed_until_threshold(self):
        breaker = CircuitBreaker(self.POLICY)
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == "closed"
        breaker.record_failure(0.0)
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_open_blocks_until_cooldown_then_one_probe(self):
        breaker = CircuitBreaker(self.POLICY)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(0.5)
        assert breaker.allow(1.1)          # cooldown elapsed: the probe
        assert breaker.state == "half_open"
        assert not breaker.allow(1.1)      # only one probe at a time

    def test_probe_success_closes_and_resets_cooldown(self):
        breaker = CircuitBreaker(self.POLICY)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.1)
        breaker.record_success()
        assert breaker.state == "closed"
        # cooldown is back at the base, not the doubled value
        breaker.record_failure(2.0)
        breaker.record_failure(2.0)
        assert not breaker.allow(2.5)
        assert breaker.allow(3.1)

    def test_probe_failure_reopens_with_doubled_cooldown(self):
        breaker = CircuitBreaker(self.POLICY)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.1)
        breaker.record_failure(1.1)        # failed probe
        assert breaker.state == "open"
        assert not breaker.allow(2.5)      # 2s cooldown now, not 1s
        assert breaker.allow(3.2)

    def test_cooldown_caps(self):
        breaker = CircuitBreaker(self.POLICY)
        now = 0.0
        for _ in range(8):                 # would be 256s uncapped
            breaker.record_failure(now)
            breaker.record_failure(now)
            now += 100.0
            assert breaker.allow(now)
            breaker.record_failure(now)    # probe fails, cooldown doubles
        assert breaker.describe()["cooldown_s"] == 8.0

    def test_bad_policy_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            CircuitBreaker(BreakerPolicy(failure_threshold=0))
        with pytest.raises(ConfigError):
            CircuitBreaker(BreakerPolicy(cooldown_s=0))


class TestSupervisorHeartbeat:
    def test_clean_sweep_pings_every_idle_worker(self, monkeypatch):
        with make_pool(monkeypatch) as pool:
            pool.warm()
            report = pool.sweep()
            assert report == {"pinged": 2, "wedged": 0, "dead": 0,
                              "respawned": 0}
            assert pool.idle_count == 2

    def test_wedged_worker_detected_and_respawned_in_one_sweep(
        self, monkeypatch
    ):
        obs.enable()
        obs.reset()
        with make_pool(monkeypatch, PING_TIMEOUT_S=0.5) as pool:
            pool.warm()
            victim = pool._idle[0]
            os.kill(victim.proc.pid, signal.SIGSTOP)  # alive but wedged
            try:
                report = pool.sweep()
            finally:
                try:
                    os.kill(victim.proc.pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert report["wedged"] == 1
            assert report["respawned"] == 1
            assert pool.idle_count == 2  # capacity restored immediately
            health = pool.health()
            assert health["wedged_total"] == 1
            assert health["respawns_total"] == 1
            # the proof the SLO gate relies on: the metrics moved
            names = {c["name"] for c in obs.snapshot()["counters"]}
            assert "repro_resilience_wedged_total" in names
            assert "repro_resilience_respawns_total" in names

    def test_health_reads_do_not_wait_on_a_wedged_worker(self, monkeypatch):
        """A sweep waits for pongs without holding the pool lock."""
        order = []
        waiting = threading.Event()

        class SpyConn:
            def __init__(self, conn):
                self._conn = conn

            def __getattr__(self, name):
                return getattr(self._conn, name)

            def poll(self, timeout):
                order.append("poll")
                waiting.set()
                ready = self._conn.poll(timeout)
                order.append("pong" if ready else "silence")
                return ready

        with make_pool(monkeypatch, jobs=1, PING_TIMEOUT_S=30.0) as pool:
            pool.warm()
            [victim] = pool._idle
            victim.conn = SpyConn(victim.conn)
            os.kill(victim.proc.pid, signal.SIGSTOP)  # alive but wedged
            sweeper = threading.Thread(target=pool.sweep)
            reader = threading.Thread(
                target=lambda: order.append(("healthy", pool.healthy))
            )
            try:
                sweeper.start()
                assert waiting.wait(30)
                reader.start()
                reader.join(10)
            finally:
                os.kill(victim.proc.pid, signal.SIGCONT)  # now it pongs
                sweeper.join(30)
                reader.join(30)
            assert not sweeper.is_alive() and not reader.is_alive()
            # the read returned while the sweep was still waiting
            assert order == ["poll", ("healthy", True), "pong"]
            assert pool.idle_count == 1

    def test_leases_never_share_a_slot_with_a_sweep(self, monkeypatch):
        """Sweeps hand pinged workers back while leases come and go."""
        held, clashes, errors = set(), [], []
        guard = threading.Lock()
        done = threading.Event()

        def leaser():
            try:
                for _ in range(40):
                    workers = pool.lease(1)
                    slots = {worker.slot for worker in workers}
                    with guard:
                        if slots & held:
                            clashes.append(slots)
                        held.update(slots)
                    with guard:
                        held.difference_update(slots)
                    pool.release(workers)
                    pool.warm()  # must not fill a slot a sweep is pinging
            except Exception as exc:  # surfaced by the assertions below
                errors.append(exc)

        def sweeper():
            while not done.is_set():
                pool.sweep()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_pool(monkeypatch, jobs=2) as pool:
                pool.warm()
                threads = [threading.Thread(target=leaser) for _ in range(2)]
                sweep = threading.Thread(target=sweeper)
                sweep.start()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                done.set()
                sweep.join(60)
                assert not any(t.is_alive() for t in threads + [sweep])
                assert errors == [] and clashes == []
                slots = [worker.slot for worker in pool._idle]
                assert sorted(slots) == [0, 1]  # one worker per slot
        finally:
            sys.setswitchinterval(switch)

    def test_dead_worker_culled_and_replaced(self, monkeypatch):
        with make_pool(monkeypatch) as pool:
            pool.warm()
            victim = pool._idle[0]
            victim.proc.kill()
            victim.proc.join(timeout=10)
            report = pool.sweep()
            assert report["dead"] == 1
            assert report["respawned"] == 1
            assert pool.idle_count == 2

    def test_respawn_budget_bounds_a_crash_loop(self, monkeypatch):
        with make_pool(monkeypatch, jobs=1, MAX_RESPAWNS=2,
                       RESPAWN_BACKOFF_S=0.0) as pool:
            pool.warm()
            for _ in range(2):
                pool._idle[0].proc.kill()
                pool._idle[0].proc.join(timeout=10)
                pool.sweep()
            assert pool.health()["respawn_budget"] == 0
            assert not pool.health()["healthy"]
            # budget refills one credit per clean sweep: self-recovery
            pool.sweep()
            assert pool.health()["respawn_budget"] == 1
            assert pool.health()["healthy"]

    def test_background_thread_sweeps(self, monkeypatch):
        import time

        with make_pool(monkeypatch, heartbeat_s=0.05) as pool:
            pool.warm()
            pool.start()
            deadline = time.monotonic() + 5
            while pool.health()["sweeps"] == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert pool.health()["sweeps"] > 0

    def test_heartbeat_leaves_no_stale_pong_behind(self, monkeypatch):
        # a sweep immediately followed by a real engine dispatch must not
        # desync the worker pipes
        with make_pool(monkeypatch) as pool:
            pool.warm()
            pool.sweep()
            engine = ExperimentEngine(FAST, pool=pool)
            request = DEFAULT_RUNNER.request_for("mult", "original", size=24)
            assert engine.run_many([request])[0].status == "ok"


class TestSupervisorBreakers:
    def test_release_feedback_trips_a_slot(self, monkeypatch):
        policy = BreakerPolicy(failure_threshold=1, cooldown_s=60.0)
        with make_pool(monkeypatch, jobs=1, BREAKER_POLICY=policy) as pool:
            [worker] = pool.lease(1)
            worker.proc.kill()
            worker.proc.join(timeout=10)
            pool.release([worker])  # dead at release = breaker failure
            health = pool.health()
            assert health["breakers_open"] == 1
            assert not health["healthy"]
            with pytest.raises(EngineError, match="quarantined"):
                pool.lease(1)

    def test_half_open_probe_recovers_the_slot(self, monkeypatch):
        policy = BreakerPolicy(failure_threshold=1, cooldown_s=30.0)
        with make_pool(monkeypatch, jobs=1, BREAKER_POLICY=policy) as pool:
            [worker] = pool.lease(1)
            worker.proc.kill()
            worker.proc.join(timeout=10)
            pool.release([worker])
            try:
                clock.set_skew(31.0)  # cooldown elapses instantly
                leased = pool.lease(1)  # the half-open probe
                pool.release(leased)    # clean release closes the breaker
            finally:
                clock.clear()
            assert pool.health()["breakers_open"] == 0
            assert pool.health()["healthy"]

    def test_clean_release_records_success(self, monkeypatch):
        with make_pool(monkeypatch, jobs=1) as pool:
            with pool.leased(1):
                pass
            assert pool.health()["breakers_open"] == 0


class TestDegradedAnswers:
    CONFLICT_SOURCE = (
        "program clash\n"
        "param N = 512\n"
        "real*8 A(N, N), B(N, N)\n"
        "do j = 1, N\n"
        "  do i = 1, N\n"
        "    A(i, j) = A(i, j) + B(i, j)\n"
        "  end do\n"
        "end do\n"
        "end\n"
    )

    def test_degraded_run_record_shape(self):
        request = DEFAULT_RUNNER.request_for("jacobi", "pad", size=64)
        record = degraded_run_record(request)
        assert record["status"] == "degraded"
        assert record["degraded"] is True
        assert record["stats"] is None
        assert record["estimate"]["total_refs"] > 0
        assert record["error_bound_pct"] >= 0.0

    def test_run_record_upgrades_with_runner(self):
        request = DEFAULT_RUNNER.request_for("jacobi", "original", size=64)
        record = degraded_run_record(request, runner=DEFAULT_RUNNER)
        assert record["status"] == "analytic"
        assert record["degraded"] is False
        assert record["tier"] == "analytic"
        assert record["error_bound_pct"] == 0.0
        # exact: byte-identical to what the simulator reports
        stats = DEFAULT_RUNNER.execute(request)
        assert record["stats"]["misses"] == stats.misses
        assert record["stats"]["accesses"] == stats.accesses

    def test_cached_stats_beat_the_estimator(self):
        request = DEFAULT_RUNNER.request_for("mult", "original", size=24)
        stats = DEFAULT_RUNNER.execute(request)
        record = degraded_run_record(request, cached_stats=stats)
        assert record["status"] == "cached"
        assert record["stats"]["misses"] == stats.misses
        assert "degraded" not in record

    # the same kernel with a triangular inner bound: the analytic
    # predictor bails (symbolic_bounds), so brownout falls back to the
    # heuristic estimator and the answer is genuinely degraded
    TRIANGULAR_SOURCE = CONFLICT_SOURCE.replace("do i = 1, N", "do i = j, N")

    def test_analyzable_source_upgrades_to_analytic(self):
        from repro.cache.config import CacheConfig

        conflict_source = self.CONFLICT_SOURCE

        class Request:
            source = conflict_source
            params = {}
            heuristic = "pad"
            m_lines = 4
            cache = CacheConfig(16 * 1024, 32)

        # The brownout ladder upgrades analyzable sources to the exact
        # analytic tier: same counts the simulator would produce, so the
        # answer is not degraded and the error bound is zero.
        response = degraded_simulate_source(Request)
        assert response["status"] == "analytic"
        assert response["degraded"] is False
        assert response["tier"] == "analytic"
        assert response["error_bound_pct"] == 0.0
        assert response["original"]["misses"] > 0
        assert response["padded"]["misses"] < response["original"]["misses"]
        assert response["improvement_pct"] > 0.0  # pad removes the aliasing

    def test_degraded_source_carries_error_bound(self):
        from repro.cache.config import CacheConfig

        triangular_source = self.TRIANGULAR_SOURCE

        class Request:
            source = triangular_source
            params = {}
            heuristic = "pad"
            m_lines = 4
            cache = CacheConfig(16 * 1024, 32)

        response = degraded_simulate_source(Request)
        assert response["status"] == "degraded"
        assert response["degraded"] is True
        # the predictor cannot analyze the triangular nest and must say why
        assert response["bailout"] == "symbolic_bounds"
        # a 512x512 double array under a 16K direct-mapped cache: columns
        # alias, the estimator must flag conflicts and the bound is the
        # conflict-attributable share
        assert response["original"]["estimate"]["severe"]
        assert response["error_bound_pct"] > 0.0
        assert response["improvement_pct"] >= 0.0
