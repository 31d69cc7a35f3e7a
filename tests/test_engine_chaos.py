"""Chaos suite: prove the engine's guarantees under seeded fault injection.

The acceptance bar (ISSUE 1): with 10% injected timeouts, 5% worker kills
and 5% corrupted store entries, a Figure-9 sweep completes with every run
``ok``, ``degraded``, ``cached`` or ``failed``-with-journal-entry — never
a lost result or an engine crash — and a killed-then-resumed sweep
recomputes only the unfinished runs.
"""

import collections

import pytest

from repro.chaos import parse_schedule
from repro.engine.core import EngineConfig, ExperimentEngine
from repro.engine.faults import corrupt_disk_tier
from repro.engine.journal import RunJournal, read_journal
from repro.engine.plan import collect_requests
from repro.engine.store import CrashSafeStore
from repro.experiments.runner import Runner, request_key

pytestmark = [pytest.mark.engine, pytest.mark.chaos]

# Figure 9 over a representative program mix: stencils that pad well, the
# truncated linear-algebra kernels, and an irregular null case.
CHAOS_PROGRAMS = ("dot", "jacobi", "chol", "dgefa", "irr")

TERMINAL = {"ok", "degraded", "cached", "failed"}

# The unified chaos schedule (repro.chaos) this suite injects through;
# the same JSON shape drives `repro serve --chaos` and `repro campaign
# --chaos`, so passing here pins the shared plumbing too.
CHAOS_SCHEDULE = {
    "seed": 7,
    "worker": {"hang": 0.10, "kill": 0.05, "error": 0.05, "corrupt": 0.05},
}


def _chaos_config(**overrides):
    defaults = dict(
        jobs=4,
        timeout=5.0,
        retries=2,
        backoff_base=0.0,
        faults=parse_schedule(CHAOS_SCHEDULE).engine_plan(),
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


class TestChaosSweep:
    def test_fig9_sweep_completes_under_faults(self, tmp_path):
        requests = collect_requests(["fig9"], programs=CHAOS_PROGRAMS)
        assert len(requests) == 5 * len(CHAOS_PROGRAMS)

        journal_path = tmp_path / "journal.jsonl"
        store = CrashSafeStore(tmp_path / "runner_cache.db")
        engine = ExperimentEngine(_chaos_config())
        outcomes = engine.run_many(
            requests, store=store, journal=RunJournal(journal_path)
        )

        # Never a lost result: one terminal outcome per request.
        assert len(outcomes) == len(requests)
        assert all(o.status in TERMINAL for o in outcomes)

        events = read_journal(journal_path)
        finishes = {e["run"]: e for e in events if e["event"] == "finish"}
        for outcome in outcomes:
            key = request_key(outcome.request)
            # ... and every terminal state is journaled, failures with why.
            assert finishes[key]["status"] == outcome.status
            if outcome.status == "failed":
                assert outcome.error
                assert finishes[key]["error"] == outcome.error
            else:
                assert outcome.stats is not None
                # successful results are bit-identical to a clean serial run
                assert outcome.stats == Runner().execute(outcome.request)

        # the plan really injected something, else this test proves nothing
        injected = [e for e in events if e["event"] == "start" and "injected" in e]
        assert injected

    def test_sweep_is_deterministic_under_same_seed(self, tmp_path):
        requests = collect_requests(["fig9"], programs=("dot", "jacobi"))
        first = ExperimentEngine(_chaos_config()).run_many(requests)
        second = ExperimentEngine(_chaos_config()).run_many(requests)
        assert [o.status for o in first] == [o.status for o in second]
        assert [o.attempts for o in first] == [o.attempts for o in second]


class TestKillAndResume:
    def test_resume_recomputes_only_unfinished_runs(self, tmp_path):
        requests = collect_requests(["fig9"], programs=("dot", "jacobi", "chol"))
        store_path = tmp_path / "runner_cache.db"

        # First sweep dies (kill -9) after finishing a prefix of the runs:
        # the crash-safe store already holds exactly those results.
        survivors = requests[: len(requests) // 2]
        ExperimentEngine(_chaos_config(faults=None)).run_many(
            survivors, store=CrashSafeStore(store_path)
        )

        journal_path = tmp_path / "resume.jsonl"
        outcomes = ExperimentEngine(_chaos_config(faults=None)).run_many(
            requests,
            store=CrashSafeStore(store_path),
            journal=RunJournal(journal_path),
        )
        by_status = collections.Counter(o.status for o in outcomes)
        assert by_status["cached"] == len(survivors)
        started = {e["run"] for e in read_journal(journal_path)
                   if e["event"] == "start"}
        assert started == {request_key(r) for r in requests[len(survivors):]}

    def test_corrupted_store_entries_recomputed_not_trusted(self, tmp_path):
        requests = collect_requests(["fig9"], programs=("dot", "jacobi"))
        store_path = tmp_path / "runner_cache.db"
        ExperimentEngine(_chaos_config(faults=None)).run_many(
            requests, store=CrashSafeStore(store_path)
        )

        hit = corrupt_disk_tier(store_path, fraction=0.4, seed=5)
        assert hit > 0

        journal_path = tmp_path / "j.jsonl"
        with CrashSafeStore(store_path) as store:
            # the sweep's lookups quarantine the damaged rows
            outcomes = ExperimentEngine(_chaos_config(faults=None)).run_many(
                requests, store=store, journal=RunJournal(journal_path)
            )
            assert len(store.quarantine_rows()) == hit
        by_status = collections.Counter(o.status for o in outcomes)
        assert by_status["cached"] == len(requests) - hit
        assert by_status["ok"] == hit
        # recomputed results are correct, not the corrupted leftovers
        serial = Runner()
        for outcome in outcomes:
            assert outcome.stats == serial.execute(outcome.request)
