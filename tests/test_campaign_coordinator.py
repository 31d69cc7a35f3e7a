"""Campaign coordinator: lease loop, durable commits, resume semantics."""

import collections
import json

import pytest

from repro.campaign.coordinator import Coordinator
from repro.campaign.disktier import DiskTier
from repro.campaign.plan import compile_plan
from repro.campaign.spec import parse_spec
from repro.chaos import ChaosSchedule
from repro.engine.core import EngineConfig, ExperimentEngine
from repro.engine.faults import FaultPlan
from repro.engine.journal import RunJournal, read_journal
from repro.errors import CampaignError

pytestmark = [pytest.mark.engine]

FAST_POLICY = {"backoff_base_s": 0.0, "timeout_s": 30.0}


def small_plan(**overrides):
    body = {
        "name": "test",
        "benchmarks": ["dot", "jacobi"],
        "heuristics": ["pad"],
        "caches": [{"size": "8K", "line": 32}],
        "seed": 11,
        "policy": dict(FAST_POLICY),
    }
    body.update(overrides)
    return compile_plan(parse_spec(body))


def events(workdir, name=None):
    rows = read_journal(workdir / "journal.jsonl")
    if name is None:
        return rows
    return [row for row in rows if row.get("event") == name]


class TestRun:
    def test_campaign_completes_and_commits(self, tmp_path):
        plan = small_plan()
        report = Coordinator(plan, tmp_path, jobs=2).run()
        assert report.ok
        assert report.completed == len(plan.items)
        assert report.cached == 0
        # every item hit the durable tier before being journaled done
        with DiskTier(tmp_path / "campaign.db") as tier:
            assert len(tier) == len(plan.items)
        assert len(events(tmp_path, "item_completed")) == len(plan.items)
        assert events(tmp_path, "campaign_start")
        assert events(tmp_path, "campaign_finish")

    def test_results_document_written(self, tmp_path):
        plan = small_plan()
        Coordinator(plan, tmp_path, jobs=2).run()
        doc = json.loads((tmp_path / "results.json").read_text())
        assert doc["campaign"] == plan.campaign_id
        assert doc["plan"] == plan.digest
        assert sorted(doc["results"]) == sorted(
            item.item_id for item in plan.items
        )
        for item in plan.items:
            entry = doc["results"][item.item_id]
            assert entry["key"] == item.key
            assert entry["stats"]["accesses"] > 0


class TestResume:
    def test_resume_serves_everything_from_tier(self, tmp_path):
        plan = small_plan()
        Coordinator(plan, tmp_path, jobs=2).run()
        report = Coordinator(plan, tmp_path, jobs=2).run(resume=True)
        assert report.resumed
        assert report.cached == len(plan.items)
        # zero re-simulation: no lease events after the resume marker
        rows = events(tmp_path)
        resume_at = max(
            i for i, row in enumerate(rows)
            if row.get("event") == "campaign_resume"
        )
        leased_after = [
            row for row in rows[resume_at:]
            if row.get("event") == "item_leased"
        ]
        assert leased_after == []

    def test_resumed_results_byte_identical(self, tmp_path):
        plan = small_plan()
        ref_dir, resume_dir = tmp_path / "ref", tmp_path / "resumed"
        Coordinator(plan, ref_dir, jobs=2).run()
        Coordinator(plan, resume_dir, jobs=2).run()
        Coordinator(plan, resume_dir, jobs=2).run(resume=True)
        assert (
            (ref_dir / "results.json").read_bytes()
            == (resume_dir / "results.json").read_bytes()
        )

    def test_resume_without_journal_refused(self, tmp_path):
        with pytest.raises(CampaignError, match="nothing to resume"):
            Coordinator(small_plan(), tmp_path).run(resume=True)

    def test_resume_with_changed_spec_refused(self, tmp_path):
        # changing the spec changes the content-addressed campaign id,
        # so the journal no longer matches the campaign being resumed
        Coordinator(small_plan(), tmp_path, jobs=2).run()
        changed = small_plan(seed=12)
        with pytest.raises(CampaignError):
            Coordinator(changed, tmp_path, jobs=2).run(resume=True)


class TestFaults:
    def test_worker_kills_retry_to_identical_results(self, tmp_path):
        plan = small_plan()
        ref_dir, chaos_dir = tmp_path / "ref", tmp_path / "chaos"
        Coordinator(plan, ref_dir, jobs=2).run()
        faults = ChaosSchedule(
            seed=7, worker=FaultPlan(kill=0.3, error=0.2, seed=7)
        )
        coordinator = Coordinator(plan, chaos_dir, jobs=2, faults=faults)
        assert coordinator.run().ok
        assert (
            (ref_dir / "results.json").read_bytes()
            == (chaos_dir / "results.json").read_bytes()
        )
        # injected faults show up as released leases in the journal
        assert events(chaos_dir, "item_released")

    def test_exhausted_retries_fail_the_campaign(self, tmp_path):
        plan = small_plan(
            benchmarks=["dot"],
            policy={"backoff_base_s": 0.0, "retries": 0, "fallback": False},
        )
        faults = ChaosSchedule(seed=3, worker=FaultPlan(error=1.0, seed=3))
        with pytest.raises(CampaignError, match="failed"):
            Coordinator(plan, tmp_path, jobs=1, faults=faults).run()
        assert events(tmp_path, "item_failed")

    def test_allow_partial_returns_partial_report(self, tmp_path):
        plan = small_plan(
            benchmarks=["dot"],
            policy={"backoff_base_s": 0.0, "retries": 0, "fallback": False},
        )
        faults = ChaosSchedule(seed=3, worker=FaultPlan(error=1.0, seed=3))
        report = Coordinator(
            plan, tmp_path, jobs=1, allow_partial=True, faults=faults
        ).run()
        assert report.failed == len(plan.items)
        # the results document still exists, just without the failures
        doc = json.loads((tmp_path / "results.json").read_text())
        assert doc["results"] == {}


class TestSharedLadder:
    """``run_many`` and a campaign climb one retry -> fallback -> fail
    ladder: the same fault plan gives every key the same history."""

    def test_same_fault_plan_same_ladder(self, tmp_path):
        plan = small_plan(
            heuristics=["pad", "original"],
            caches=[{"size": "8K", "line": 32}, {"size": "4K", "line": 32}],
            policy={"backoff_base_s": 0.0, "timeout_s": 30.0, "retries": 1},
        )
        faults = FaultPlan(kill=0.3, error=0.3, seed=4)
        report = Coordinator(
            plan, tmp_path / "campaign", jobs=2, allow_partial=True,
            faults=ChaosSchedule(seed=4, worker=faults),
        ).run()
        sweep_journal = tmp_path / "sweep.jsonl"
        config = EngineConfig(
            jobs=2, timeout=30.0, retries=1, backoff_base=0.0, faults=faults
        )
        outcomes = ExperimentEngine(config).run_many(
            [item.request for item in plan.items],
            journal=RunJournal(sweep_journal),
        )

        def attempts(rows, event, id_field):
            history = collections.defaultdict(list)
            for row in rows:
                if row.get("event") == event:
                    history[row[id_field]].append(
                        (row["attempt"], row["simulator"], row.get("injected"))
                    )
            return history

        swept = attempts(read_journal(sweep_journal), "start", "run")
        leased = attempts(
            events(tmp_path / "campaign"), "item_leased", "item"
        )
        for item, outcome in zip(plan.items, outcomes):
            mine = report.outcomes[item.item_id]
            assert leased[item.item_id] == swept[item.key]
            assert mine.attempts == outcome.attempts
            assert mine.status == outcome.status
            assert mine.stats == outcome.stats
        # the seed exercises every rung of the ladder
        assert {o.status for o in outcomes} == {"ok", "degraded", "failed"}
