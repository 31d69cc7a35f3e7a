"""Tests for the fault-tolerant execution engine.

Targeted failure modes (hang, crash, corrupt result, repeated error) are
driven through scripted fault plans — duck-typed stand-ins for
:class:`~repro.engine.faults.FaultPlan` that fire on chosen attempts —
so each guarantee is exercised in isolation and deterministically.
"""

import time

import pytest

from repro.cache.config import direct_mapped
from repro.engine.core import EngineConfig, ExperimentEngine, Task, backoff
from repro.engine.journal import RunJournal, read_journal
from repro.engine.store import CrashSafeStore
from repro.experiments.runner import Runner, request_key

pytestmark = pytest.mark.engine


def _requests(n=4, size=96):
    """Small, fast, distinct run requests."""
    runner = Runner()
    caches = [direct_mapped(2 ** (10 + i % 3)) for i in range(n)]
    heuristics = ["original", "pad", "padlite", "interpad"]
    return [
        runner.request_for("dot", heuristics[i % 4], caches[i], size=size + 32 * i)
        for i in range(n)
    ]


def _fast_config(**overrides):
    defaults = dict(jobs=2, timeout=30.0, retries=1, backoff_base=0.0)
    defaults.update(overrides)
    return EngineConfig(**defaults)


class _ScriptedFaults:
    """Inject ``kind`` on exactly the given (global) attempt numbers."""

    def __init__(self, kind, attempts):
        self.kind = kind
        self.attempts = set(attempts)

    def decide(self, key, attempt):
        return self.kind if attempt in self.attempts else None


class TestHappyPath:
    def test_results_match_serial_runner(self):
        requests = _requests(4)
        outcomes = ExperimentEngine(_fast_config()).run_many(requests)
        serial = Runner()
        for request, outcome in zip(requests, outcomes):
            assert outcome.status == "ok"
            assert outcome.attempts == 1
            expected = serial.execute(request)
            assert outcome.stats == expected
            assert outcome.duration > 0

    def test_duplicate_requests_share_one_outcome(self):
        requests = _requests(2)
        outcomes = ExperimentEngine(_fast_config()).run_many(requests + requests)
        assert len(outcomes) == 4
        assert outcomes[0] is outcomes[2]

    def test_parallel_beats_serial(self, tmp_path):
        """Acceptance: N>=4 workers run at once, not one after another.

        Structural, not a stopwatch: the loop hands every idle worker a
        task before it waits on any of them, so with ``jobs=4`` the
        journal must show four attempts on four distinct worker
        processes before the first run finishes.
        """
        journal_path = tmp_path / "j.jsonl"
        outcomes = ExperimentEngine(_fast_config(jobs=4)).run_many(
            _requests(8), journal=RunJournal(journal_path)
        )
        assert all(o.status == "ok" for o in outcomes)
        events = [e["event"] for e in read_journal(journal_path)]
        first_finish = events.index("finish")
        starts = [
            e for e in read_journal(journal_path)[:first_finish]
            if e["event"] == "start"
        ]
        assert len(starts) == 4
        assert len({e["worker"] for e in starts}) == 4


class TestCrashContainment:
    def test_worker_kill_is_retried(self, tmp_path):
        requests = _requests(3)
        journal_path = tmp_path / "j.jsonl"
        engine = ExperimentEngine(
            _fast_config(faults=_ScriptedFaults("kill", {1}))
        )
        outcomes = engine.run_many(requests, journal=RunJournal(journal_path))
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        events = read_journal(journal_path)
        retries = [e for e in events if e["event"] == "retry"]
        assert len(retries) == 3  # every run's first attempt was killed
        assert all("WorkerCrashed" in e["reason"] for e in retries)

    def test_sweep_survives_every_worker_dying_once(self):
        # attempt numbers are per run: every run's first attempt is killed
        requests = _requests(4)
        engine = ExperimentEngine(
            _fast_config(jobs=2, faults=_ScriptedFaults("kill", {1}))
        )
        outcomes = engine.run_many(requests)
        assert all(o.status == "ok" for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)

    def test_corrupt_result_never_accepted(self, tmp_path):
        requests = _requests(2)
        journal_path = tmp_path / "j.jsonl"
        engine = ExperimentEngine(
            _fast_config(faults=_ScriptedFaults("corrupt", {1}))
        )
        outcomes = engine.run_many(requests, journal=RunJournal(journal_path))
        assert all(o.status == "ok" for o in outcomes)
        serial = Runner()
        for request, outcome in zip(requests, outcomes):
            assert outcome.stats == serial.execute(request)
        reasons = [e["reason"] for e in read_journal(journal_path)
                   if e["event"] == "retry"]
        assert any("checksum" in r for r in reasons)


class TestTimeouts:
    def test_hung_worker_killed_and_retried(self):
        requests = _requests(2)
        engine = ExperimentEngine(
            _fast_config(timeout=1.0, faults=_ScriptedFaults("timeout", {1}))
        )
        t0 = time.monotonic()
        outcomes = engine.run_many(requests)
        wall = time.monotonic() - t0
        assert all(o.status == "ok" for o in outcomes)
        assert wall < 15  # the injected hang sleeps ~4s; we must not wait it out

    def test_all_attempts_hung_marks_failed(self):
        requests = _requests(1)
        engine = ExperimentEngine(EngineConfig(
            jobs=1, timeout=0.4, retries=0, backoff_base=0.0,
            fallback=False,
            faults=_ScriptedFaults("timeout", {1, 2, 3, 4, 5}),
        ))
        outcomes = engine.run_many(requests)
        assert outcomes[0].status == "failed"
        assert "RunTimeout" in outcomes[0].error


class TestGracefulDegradation:
    def test_fallback_to_reference_sim_tags_degraded(self, tmp_path):
        requests = _requests(1)
        journal_path = tmp_path / "j.jsonl"
        # retries=1 -> attempts 1,2 on fastsim both error; attempt 3 is the
        # reference-simulator fallback and must succeed.
        engine = ExperimentEngine(
            _fast_config(faults=_ScriptedFaults("error", {1, 2}))
        )
        outcomes = engine.run_many(requests, journal=RunJournal(journal_path))
        assert outcomes[0].status == "degraded"
        assert outcomes[0].stats == Runner().execute(requests[0])
        events = [e["event"] for e in read_journal(journal_path)]
        assert "fallback" in events
        assert events[-1] == "finish"

    def test_no_fallback_fails_instead(self):
        requests = _requests(1)
        engine = ExperimentEngine(
            _fast_config(fallback=False,
                         faults=_ScriptedFaults("error", {1, 2}))
        )
        outcomes = engine.run_many(requests)
        assert outcomes[0].status == "failed"
        assert "InjectedFault" in outcomes[0].error

    def test_failure_is_contained_to_one_run(self):
        requests = _requests(3)
        bad_key = request_key(requests[1])

        class OneRunAlwaysFails:
            def decide(self, key, attempt):
                return "error" if key == bad_key else None

        engine = ExperimentEngine(
            _fast_config(fallback=False, faults=OneRunAlwaysFails())
        )
        outcomes = engine.run_many(requests)
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]


class TestResume:
    def test_store_hits_short_circuit(self, tmp_path):
        requests = _requests(4)
        store = CrashSafeStore(tmp_path / "s.json")
        first = ExperimentEngine(_fast_config()).run_many(
            requests[:2], store=store
        )
        assert all(o.status == "ok" for o in first)

        journal_path = tmp_path / "j.jsonl"
        second = ExperimentEngine(_fast_config()).run_many(
            requests, store=CrashSafeStore(tmp_path / "s.json"),
            journal=RunJournal(journal_path),
        )
        statuses = [o.status for o in second]
        assert statuses == ["cached", "cached", "ok", "ok"]
        # only the unfinished runs were dispatched to workers
        started = {e["run"] for e in read_journal(journal_path)
                   if e["event"] == "start"}
        assert started == {request_key(r) for r in requests[2:]}

    def test_cached_stats_equal_fresh_ones(self, tmp_path):
        requests = _requests(2)
        store = CrashSafeStore(tmp_path / "s.json")
        fresh = ExperimentEngine(_fast_config()).run_many(requests, store=store)
        cached = ExperimentEngine(_fast_config()).run_many(requests, store=store)
        for a, b in zip(fresh, cached):
            assert b.status == "cached"
            assert a.stats == b.stats


class TestJournal:
    def test_events_carry_durations_and_workers(self, tmp_path):
        requests = _requests(2)
        journal_path = tmp_path / "j.jsonl"
        ExperimentEngine(_fast_config()).run_many(
            requests, journal=RunJournal(journal_path)
        )
        events = read_journal(journal_path)
        starts = [e for e in events if e["event"] == "start"]
        finishes = [e for e in events if e["event"] == "finish"]
        assert len(starts) == len(finishes) == 2
        assert all(e["worker"] > 0 and e["simulator"] == "fast" for e in starts)
        assert all(e["duration"] > 0 and e["status"] == "ok" for e in finishes)
        assert all(e["ts"] > 0 for e in events)


class TestBackoffJitter:
    """Retry backoff must be deterministic per task key yet spread across
    keys, so a sweep's retries never stampede in lockstep."""

    def _engine(self, **overrides):
        return _fast_config(backoff_base=0.25, backoff_cap=30.0, **overrides)

    def _task(self, key, attempts=1, total_attempts=1):
        request = _requests(1)[0]
        return Task(index=0, request=request, key=key,
                    attempts=attempts, total_attempts=total_attempts)

    def test_same_key_same_attempt_is_deterministic(self):
        a = self._engine(seed=5)
        b = self._engine(seed=5)
        for attempt in (1, 2, 3):
            task = self._task("prog|pad|c", attempts=attempt,
                              total_attempts=attempt)
            assert backoff(a, task) == backoff(b, task)

    def test_delays_spread_across_task_keys(self):
        engine = self._engine(seed=0)
        delays = {
            backoff(engine, self._task(f"prog{i}|pad|c"))
            for i in range(32)
        }
        # 32 keys, first attempt each: raw delay is identical, so any
        # variation is pure jitter -- demand it actually spreads
        assert len(delays) >= 30
        for delay in delays:
            assert 0.25 * 0.5 <= delay <= 0.25 * 1.5

    def test_jitter_depends_on_seed(self):
        task = self._task("prog|pad|c")
        assert (backoff(self._engine(seed=1), task)
                != backoff(self._engine(seed=2), task))

    def test_exponential_growth_respects_cap(self):
        engine = self._engine(seed=0)
        raw = [
            backoff(engine, self._task("k", attempts=n, total_attempts=n))
            for n in range(1, 12)
        ]
        assert all(d <= 30.0 * 1.5 for d in raw)
        # early attempts genuinely grow
        assert raw[1] > raw[0] * 1.2

    def test_zero_base_disables_waiting(self):
        config = _fast_config(backoff_base=0.0)
        assert backoff(config, self._task("k")) == 0.0
