"""Guard chaos suite: every injected layout corruption must be caught.

The acceptance bar: with deterministic layout-corruption faults injected
(all :data:`~repro.engine.faults.LAYOUT_CORRUPTIONS` kinds), strict mode
catches 100% — zero corrupted layouts reach the simulator — and warn
mode journals a ``guard_violation`` event and rolls the run back, never
committing the corrupted layout's numbers.

``budget_bytes`` is always configured here: ``pad_explosion`` on the
last-placed array is structurally sound (consistent strides, no overlap,
self-consistent trace) and only the memory-budget ceiling condemns it.
"""

import collections

import pytest

from repro.engine.core import EngineConfig, ExperimentEngine
from repro.engine.faults import (
    LAYOUT_CORRUPTIONS,
    FaultPlan,
    choose_corruption,
    corrupt_layout,
)
from repro.engine.journal import RunJournal, read_journal
from repro.errors import GuardViolationError
from repro.experiments.runner import Runner, request_key
from repro.guard import GuardConfig, runtime as guard_runtime
from repro.obs import runtime as obs

pytestmark = [pytest.mark.engine, pytest.mark.chaos, pytest.mark.guard]

#: plenty for any legitimate pad on these programs, far under explosion
BUDGET = 1 << 20

CHAOS_PROGRAMS = ("dot", "jacobi", "chol")


def saboteur(kind):
    return lambda prog, layout: corrupt_layout(prog, layout, kind)


class TestRunnerCatchesEveryCorruption:
    @pytest.mark.parametrize("kind", LAYOUT_CORRUPTIONS)
    def test_strict_raises_for_every_kind(self, kind):
        runner = Runner()
        runner.layout_saboteur = saboteur(kind)
        with guard_runtime.activated(
            GuardConfig(mode="strict", budget_bytes=BUDGET)
        ):
            with pytest.raises(GuardViolationError):
                runner.run("jacobi", "pad", size=64)

    @pytest.mark.parametrize("kind", LAYOUT_CORRUPTIONS)
    def test_warn_rolls_back_every_kind(self, kind):
        runner = Runner()
        runner.layout_saboteur = saboteur(kind)
        with guard_runtime.activated(
            GuardConfig(mode="warn", budget_bytes=BUDGET)
        ):
            committed = runner.run("jacobi", "pad", size=64)
            report = runner.last_guard
        assert report is not None and report.status == "rolled_back"
        assert report.violations
        # rolled back means the original layout's honest numbers
        assert committed == Runner().run("jacobi", "original", size=64)

    def test_strict_simulator_never_sees_a_corrupted_layout(self, monkeypatch):
        from repro.experiments import runner as runner_mod

        runner = Runner()
        # memoize the clean baseline first; afterwards any simulator
        # construction can only serve the corrupted transformed layout
        runner.run("jacobi", "original", size=64)
        built = []
        monkeypatch.setattr(
            runner_mod, "make_simulator",
            lambda cache: built.append(cache) or (_ for _ in ()).throw(
                AssertionError("simulator built for a corrupted layout")
            ),
        )
        monkeypatch.setattr(
            runner_mod, "ReferenceCache",
            lambda cache: built.append(cache) or (_ for _ in ()).throw(
                AssertionError("simulator built for a corrupted layout")
            ),
        )
        for kind in LAYOUT_CORRUPTIONS:
            runner.layout_saboteur = saboteur(kind)
            with guard_runtime.activated(
                GuardConfig(mode="strict", budget_bytes=BUDGET)
            ):
                with pytest.raises(GuardViolationError):
                    runner.run("jacobi", "pad", size=64)
        assert built == []


class TestEngineLayoutFaults:
    def _config(self, mode, **overrides):
        defaults = dict(
            jobs=2,
            timeout=60.0,
            retries=0,
            fallback=False,
            backoff_base=0.0,
            faults=FaultPlan(layout=1.0, seed=11),
            guard=GuardConfig(mode=mode, budget_bytes=BUDGET),
        )
        defaults.update(overrides)
        return EngineConfig(**defaults)

    def _requests(self):
        runner = Runner()
        reqs = [runner.request_for(p, "original", size=48) for p in CHAOS_PROGRAMS]
        reqs += [runner.request_for(p, "pad", size=48) for p in CHAOS_PROGRAMS]
        return reqs

    def test_warn_mode_rolls_back_and_journals(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        outcomes = ExperimentEngine(self._config("warn")).run_many(
            self._requests(), journal=RunJournal(journal_path)
        )
        clean = Runner()
        by_status = collections.Counter(o.status for o in outcomes)
        events = read_journal(journal_path)
        violated = {e["run"] for e in events if e["event"] == "guard_violation"}
        for outcome in outcomes:
            if outcome.request.heuristic == "original":
                # the baseline is never sabotaged: stays trustworthy
                assert outcome.status == "ok"
                continue
            # every transformed run was corrupted, caught, rolled back...
            assert outcome.status == "rolled_back"
            assert outcome.guard and outcome.guard["violations"]
            # ...journaled for crash-safe forensics...
            assert request_key(outcome.request) in violated
            # ...and committed the ORIGINAL layout's stats, not garbage
            original = clean.run(
                outcome.request.program, "original", outcome.request.cache,
                size=outcome.request.size,
                max_outer=outcome.request.max_outer,
            )
            assert outcome.stats == original
        assert by_status["rolled_back"] == len(CHAOS_PROGRAMS)
        # exactly one rollback event per rolled-back run: forked workers
        # must not double-journal through inherited parent sinks
        rollbacks = [e for e in events if e["event"] == "guard_rollback"]
        assert len(rollbacks) == len(CHAOS_PROGRAMS)

    def test_guard_counters_match_journal_events(self, tmp_path):
        """Each guard counter equals its journal event count.

        Workers count their own violations and rollbacks and the parent
        merges that snapshot, so the parent must not count them again.
        """
        journal_path = tmp_path / "journal.jsonl"
        runner = Runner()
        requests = [
            runner.request_for(p, "pad", size=48) for p in CHAOS_PROGRAMS
        ]
        obs.reset()
        obs.enable()
        try:
            ExperimentEngine(self._config("warn")).run_many(
                requests, journal=RunJournal(journal_path)
            )
            counters = collections.Counter()
            for row in obs.snapshot()["counters"]:
                counters[row["name"]] += row["value"]
        finally:
            obs.disable()
            obs.reset()
        events = collections.Counter(
            e["event"] for e in read_journal(journal_path)
        )
        assert events["guard_rollback"] == len(CHAOS_PROGRAMS)
        assert (counters["repro_guard_violations_total"]
                == events["guard_violation"])
        assert (counters["repro_guard_rollbacks_total"]
                == events["guard_rollback"])

    def test_strict_mode_fails_faulted_runs_loudly(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        outcomes = ExperimentEngine(self._config("strict")).run_many(
            self._requests(), journal=RunJournal(journal_path)
        )
        for outcome in outcomes:
            if outcome.request.heuristic == "original":
                assert outcome.status == "ok"
            else:
                # zero corrupted layouts reach the simulator: the worker
                # raises instead of producing stats
                assert outcome.status == "failed"
                assert "GuardViolationError" in outcome.error
                assert outcome.stats is None

    def test_fault_choice_is_deterministic(self):
        picks = [
            choose_corruption(11, "some|run|key", attempt)
            for attempt in range(1, 9)
        ]
        assert picks == [
            choose_corruption(11, "some|run|key", attempt)
            for attempt in range(1, 9)
        ]
        assert set(picks) <= set(LAYOUT_CORRUPTIONS)

    def test_sweep_statuses_are_deterministic(self):
        first = ExperimentEngine(self._config("warn")).run_many(self._requests())
        second = ExperimentEngine(self._config("warn")).run_many(self._requests())
        assert [o.status for o in first] == [o.status for o in second]
