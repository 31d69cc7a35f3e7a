"""The one worker pool (repro.engine.pool) and its engine integration."""

import threading
import time

import pytest

from repro import cli
from repro.campaign.coordinator import Coordinator
from repro.campaign.plan import compile_plan
from repro.campaign.spec import parse_spec
from repro.chaos import clock
from repro.engine import EngineConfig, ExperimentEngine, WorkerPool
from repro.engine import pool as pool_module
from repro.errors import EngineError
from repro.experiments.runner import DEFAULT_RUNNER
from repro.resilience import BreakerPolicy

FAST = EngineConfig(jobs=2, timeout=120, retries=0, backoff_base=0)


def requests(*heuristics):
    return [
        DEFAULT_RUNNER.request_for("mult", heuristic, size=24)
        for heuristic in heuristics
    ]


class TestWorkerPool:
    def test_rejects_zero_jobs(self):
        with pytest.raises(EngineError):
            WorkerPool(jobs=0)

    def test_warm_spawns_idle_workers(self):
        with WorkerPool(jobs=2) as pool:
            assert pool.warm() == 2
            assert pool.idle_count == 2
            assert pool.leased_count == 0

    def test_lease_reuses_warm_workers(self):
        with WorkerPool(jobs=2) as pool:
            pool.warm()
            first = pool.lease(2)
            assert pool.idle_count == 0
            assert pool.leased_count == 2
            pool.release(first)
            assert pool.idle_count == 2
            second = pool.lease(2)
            # the same warm processes come back out
            assert {w.proc.pid for w in second} == {
                w.proc.pid for w in first
            }
            pool.release(second)

    def test_lease_caps_at_jobs(self):
        with WorkerPool(jobs=2) as pool:
            leased = pool.lease(8)
            assert len(leased) == 2
            pool.release(leased)

    def test_dead_worker_is_culled_on_release(self):
        with WorkerPool(jobs=1) as pool:
            [worker] = pool.lease(1)
            pid = worker.proc.pid
            worker.proc.kill()
            worker.proc.join(timeout=10)
            pool.release([worker])
            assert pool.idle_count == 0  # corpse not parked
            [fresh] = pool.lease(1)
            assert fresh.proc.pid != pid
            pool.release([fresh])

    def test_close_stops_idle_and_blocks_lease(self):
        pool = WorkerPool(jobs=1)
        pool.warm()
        [worker] = pool._idle
        pool.close()
        worker.proc.join(timeout=10)
        assert not worker.proc.is_alive()
        with pytest.raises(EngineError, match="closed"):
            pool.lease(1)
        pool.close()  # idempotent

    def test_lease_is_atomic_when_spawn_fails(self):
        # regression: a spawn failure mid-lease used to leak the workers
        # already gathered — neither idle nor counted as leased, silently
        # shrinking the pool forever
        with WorkerPool(jobs=4) as pool:
            pool.warm(2)

            def failing_spawn(slot):
                raise OSError("fork failed")

            pool._spawn = failing_spawn
            with pytest.raises(OSError, match="fork failed"):
                pool.lease(4)  # 2 warm + 2 spawns, the spawns blow up
            assert pool.leased_count == 0
            assert pool.idle_count == 2  # gathered workers went back warm
            del pool.__dict__["_spawn"]
            leased = pool.lease(4)  # the pool still works at full size
            assert len(leased) == 4
            pool.release(leased)

    def test_lease_waits_while_every_slot_is_out(self):
        # regression: with every slot merely out on lease, a further
        # lease raised "pool is quarantined" though no breaker was open
        errors, out = [], set()
        guard = threading.Lock()

        def borrower(pool):
            try:
                for _ in range(40):
                    [worker] = pool.lease(1)
                    with guard:
                        assert worker.slot not in out, "slot out twice"
                        out.add(worker.slot)
                    time.sleep(0.001)  # hold it while the others ask
                    with guard:
                        out.discard(worker.slot)
                    pool.release([worker])
            except BaseException as exc:  # reported below
                errors.append(exc)

        with WorkerPool(jobs=2) as pool:
            threads = [
                threading.Thread(target=borrower, args=(pool,))
                for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert pool.health()["breakers_open"] == 0
            assert pool.leased_count == 0

    def test_release_after_close_kills(self):
        pool = WorkerPool(jobs=1)
        leased = pool.lease(1)
        pool.close()
        pool.release(leased)
        leased[0].proc.join(timeout=10)
        assert not leased[0].proc.is_alive()


class TestPooledEngine:
    def test_engine_runs_on_pooled_workers(self):
        with WorkerPool(jobs=2) as pool:
            engine = ExperimentEngine(FAST, pool=pool)
            outcomes = engine.run_many(requests("original", "pad"))
            assert [o.status for o in outcomes] == ["ok", "ok"]
            # workers were released back warm, not torn down
            assert pool.leased_count == 0
            assert pool.idle_count >= 1

    def test_workers_stay_warm_across_sweeps(self):
        with WorkerPool(jobs=1) as pool:
            engine = ExperimentEngine(FAST, pool=pool)
            engine.run_many(requests("original"))
            pids_before = {w.proc.pid for w in pool._idle}
            engine.run_many(requests("padlite"))
            pids_after = {w.proc.pid for w in pool._idle}
            assert pids_before == pids_after != set()

    def test_two_engines_share_one_pool(self):
        with WorkerPool(jobs=1) as pool:
            first = ExperimentEngine(FAST, pool=pool)
            second = ExperimentEngine(FAST, pool=pool)
            assert first.run_many(requests("original"))[0].status == "ok"
            assert second.run_many(requests("pad"))[0].status == "ok"
            assert pool.leased_count == 0


class TestLeasedContextManager:
    def test_leases_release_on_exit(self):
        with WorkerPool(jobs=2) as pool:
            with pool.leased(2) as workers:
                assert len(workers) == 2
                assert pool.leased_count == 2
            assert pool.leased_count == 0
            assert pool.idle_count == 2

    def test_releases_on_exception(self):
        with WorkerPool(jobs=2) as pool:
            with pytest.raises(RuntimeError):
                with pool.leased(1):
                    raise RuntimeError("boom")
            assert pool.leased_count == 0

    def test_in_place_mutations_still_released(self):
        # callers may replace dead workers in the leased list in place;
        # the CM releases whatever the list holds at exit
        with WorkerPool(jobs=1) as pool:
            with pool.leased(1) as workers:
                old_pid = workers[0].proc.pid
                workers[0].proc.kill()
                workers[0].proc.join(timeout=10)
            assert pool.leased_count == 0
            # the corpse was culled, not parked
            [fresh] = pool.lease(1)
            assert fresh.proc.pid != old_pid
            pool.release([fresh])


class TestLeaseBySlot:
    def test_half_open_probe_goes_out_with_its_slot(self, monkeypatch):
        # regression: lease used to count capacity by asking every slot's
        # breaker, which spent a half-open slot's one probe on leases
        # that handed out another slot's worker; the slot never heard
        # back and the pool stayed a worker short for good
        monkeypatch.setattr(
            pool_module, "BREAKER_POLICY",
            BreakerPolicy(failure_threshold=1, cooldown_s=30.0),
        )
        with WorkerPool(jobs=2) as pool:
            workers = pool.lease(2)
            [victim] = [w for w in workers if w.slot == 0]
            victim.proc.kill()
            victim.proc.join(timeout=10)
            pool.release(workers)
            assert pool.health()["breakers"]["0"]["state"] == "open"
            try:
                clock.set_skew(31.0)  # slot 0's cooldown has elapsed
                for _ in range(4):
                    leased = pool.lease(1)
                    assert [w.slot for w in leased] == [1]
                    pool.release(leased)
                leased = pool.lease(2)
                assert sorted(w.slot for w in leased) == [0, 1]
                pool.release(leased)
            finally:
                clock.clear()
            health = pool.health()
            assert health["breakers"]["0"]["state"] == "closed"
            assert health["idle"] == 2

    def test_replace_keeps_the_slot_and_skips_the_breaker(self, monkeypatch):
        monkeypatch.setattr(
            pool_module, "BREAKER_POLICY",
            BreakerPolicy(failure_threshold=1, cooldown_s=60.0),
        )
        with WorkerPool(jobs=1) as pool:
            workers = pool.lease(1)
            old = workers[0]
            workers[0] = pool.replace(old)
            assert not old.proc.is_alive()
            assert workers[0].slot == old.slot
            assert workers[0].proc.is_alive()
            assert pool.leased_count == 1
            pool.release(workers)
            assert pool.health()["breakers_open"] == 0
            assert pool.idle_count == 1


class TestNoHeartbeatThread:
    """Only ``start()`` runs a thread; one-shot sweeps never call it."""

    @pytest.fixture
    def threads_at_release(self, monkeypatch):
        seen = []
        release = WorkerPool.release

        def spy(pool, workers):
            seen.append({t.name for t in threading.enumerate()})
            release(pool, workers)

        monkeypatch.setattr(WorkerPool, "release", spy)
        return seen

    def test_run_all_sweep(self, tmp_path, capsys, threads_at_release):
        rc = cli.main([
            "run-all", "--figures", "fig9", "--programs", "dot",
            "--jobs", "2", "--cache-dir", str(tmp_path),
        ])
        assert rc == 0
        assert threads_at_release
        assert all("pool-supervisor" not in t for t in threads_at_release)

    def test_coordinator_run(self, tmp_path, threads_at_release):
        plan = compile_plan(parse_spec({
            "name": "threads",
            "benchmarks": ["dot"],
            "heuristics": ["pad"],
            "caches": [{"size": "8K", "line": 32}],
            "policy": {"backoff_base_s": 0.0, "timeout_s": 30.0},
        }))
        Coordinator(plan, tmp_path, jobs=2).run()
        assert threads_at_release
        assert all("pool-supervisor" not in t for t in threads_at_release)

    def test_started_pool_is_seen(self, threads_at_release):
        # the spy is not blind: a started pool's thread shows up
        with WorkerPool(jobs=1, heartbeat_s=60.0) as pool:
            pool.start()
            pool.release(pool.lease(1))
        assert "pool-supervisor" in threads_at_release[-1]
