"""Tests for deterministic fault injection."""

import sqlite3

import pytest

from repro.campaign.coordinator import TIER_FILENAME
from repro.engine.faults import (
    FAULT_KINDS,
    FaultPlan,
    corrupt_disk_tier,
    unit_interval,
)
from repro.chaos import ChaosSchedule, parse_schedule
from repro.engine.plan import STORE_FILENAME
from repro.engine.store import CrashSafeStore, checksum
from repro.errors import ConfigError


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(timeout=0.2, kill=0.1, error=0.1, corrupt=0.1, seed=42)
        first = [plan.decide(f"run-{i}", a) for i in range(50) for a in (1, 2)]
        second = [plan.decide(f"run-{i}", a) for i in range(50) for a in (1, 2)]
        assert first == second
        assert any(first)  # at 50% total rate something must fire

    def test_rates_approximate_probabilities(self):
        plan = FaultPlan(timeout=0.1, kill=0.05, corrupt=0.05, seed=7)
        decisions = [plan.decide(f"k{i}", 1) for i in range(2000)]
        counts = {kind: decisions.count(kind) for kind in FAULT_KINDS}
        assert 120 <= counts["timeout"] <= 280  # ~200
        assert 50 <= counts["kill"] <= 160  # ~100
        assert counts["error"] == 0
        assert decisions.count(None) > 1500

    def test_different_seeds_differ(self):
        a = FaultPlan(timeout=0.5, seed=1)
        b = FaultPlan(timeout=0.5, seed=2)
        keys = [f"k{i}" for i in range(100)]
        assert [a.decide(k, 1) for k in keys] != [b.decide(k, 1) for k in keys]

    def test_zero_plan_never_fires(self):
        plan = FaultPlan()
        assert all(plan.decide(f"k{i}", 1) is None for i in range(100))

    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(timeout=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(timeout=0.6, kill=0.6)

    def test_unit_interval_range(self):
        values = [unit_interval(0, f"k{i}", 1) for i in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) == len(values)


class TestParseSpec:
    """Worker fault plans come from ``--chaos`` schedule files."""

    def test_full_spec(self):
        plan = parse_schedule(
            {"seed": 7, "worker": {"hang": 0.1, "kill": 0.05, "corrupt": 0.05}}
        ).engine_plan()
        assert plan == FaultPlan(timeout=0.1, kill=0.05, corrupt=0.05, seed=7)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="explode"):
            parse_schedule({"worker": {"explode": 0.5}})

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_schedule({"worker": {"hang": "lots"}})


class TestCorruptStoreEntries:
    """The same helper damages the ``run-all --cache-dir`` sweep store."""

    def test_corrupts_deterministic_fraction(self, tmp_path):
        path = tmp_path / STORE_FILENAME
        with CrashSafeStore(path) as store:
            for i in range(40):
                store.put(f"key-{i}", {"n": i})

        hit = corrupt_disk_tier(path, fraction=0.25, seed=3)
        assert 0 < hit < 40
        assert hit == corrupt_disk_tier(path, fraction=0.25, seed=3)

        with CrashSafeStore(path) as reopened:
            assert len(reopened.scan()) == 40 - hit
            assert len(reopened.quarantine_rows()) == hit
            assert len(reopened) == 40 - hit

    def test_zero_fraction_touches_nothing(self, tmp_path):
        path = tmp_path / STORE_FILENAME
        with CrashSafeStore(path) as store:
            store.put("k", 1)
        assert corrupt_disk_tier(path, fraction=0.0) == 0
        conn = sqlite3.connect(str(path))
        (digest,) = conn.execute(
            "SELECT sum FROM results WHERE key = 'k'"
        ).fetchone()
        conn.close()
        assert digest == checksum(1)


class TestCampaignFaultSpec:
    """Coordinator-level faults ride the schedule's ``campaign`` section."""

    def test_full_campaign_spec(self):
        faults = parse_schedule({
            "seed": 7,
            "worker": {"kill": 0.1, "corrupt": 0.05},
            "campaign": {"ckill": 3, "tier_corrupt": 0.25},
        })
        assert faults.coordinator_kill_after == 3
        assert faults.tier_corrupt == 0.25
        assert faults.seed == 7
        assert faults.worker == FaultPlan(kill=0.1, corrupt=0.05, seed=7)

    def test_coordinator_only_spec_has_no_worker_plan(self):
        faults = parse_schedule({"campaign": {"ckill": 1}})
        assert faults.coordinator_kill_after == 1
        assert faults.worker is None

    def test_seed_only_collapses_worker_plan(self):
        faults = parse_schedule(
            {"seed": 9, "worker": {}, "campaign": {"ckill": 2}}
        )
        assert faults.worker is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_schedule({"campaign": {"tierkill": 1}})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_schedule({"campaign": {"ckill": "soon"}})
        with pytest.raises(ConfigError):
            ChaosSchedule(coordinator_kill_after=0)
        with pytest.raises(ConfigError):
            ChaosSchedule(tier_corrupt=1.5)


class TestCorruptDiskTier:
    def test_flips_deterministic_fraction(self, tmp_path):
        path = tmp_path / TIER_FILENAME
        with CrashSafeStore(path) as tier:
            for i in range(20):
                tier.put(f"key-{i}", {"n": i})
        hit = corrupt_disk_tier(path, fraction=0.5, seed=3)
        assert 0 < hit < 20
        with CrashSafeStore(path) as tier:
            assert len(tier.scan()) == 20 - hit
            assert len(tier.quarantine_rows()) == hit

    def test_zero_fraction_touches_nothing(self, tmp_path):
        path = tmp_path / TIER_FILENAME
        with CrashSafeStore(path) as tier:
            tier.put("k", {"v": 1})
        assert corrupt_disk_tier(path, fraction=0.0) == 0
        with CrashSafeStore(path) as tier:
            assert tier.get("k") == {"v": 1}
