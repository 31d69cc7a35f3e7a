"""The unified fault-injection plane (repro.chaos): schedules and clock."""

import json

import pytest

from repro.chaos import ChaosSchedule, clock, load_schedule, parse_schedule
from repro.engine.faults import FaultPlan
from repro.errors import ConfigError

pytestmark = [pytest.mark.chaos]


class TestParseSchedule:
    def test_empty_schedule_is_inert(self):
        schedule = parse_schedule({})
        assert schedule.engine_plan() is None
        assert not schedule.serve.active
        assert schedule.coordinator_kill_after is None
        assert schedule.tier_corrupt == 0.0

    def test_worker_rates_become_a_fault_plan(self):
        schedule = parse_schedule(
            {"seed": 11, "worker": {"kill": 0.1, "corrupt": 0.05}}
        )
        plan = schedule.engine_plan()
        assert isinstance(plan, FaultPlan)
        assert plan.kill == 0.1
        assert plan.corrupt == 0.05
        assert plan.seed == 11

    def test_hang_aliases_the_engine_timeout_kind(self):
        plan = parse_schedule({"worker": {"hang": 0.2}}).engine_plan()
        assert plan.timeout == 0.2

    def test_hang_and_timeout_together_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_schedule({"worker": {"hang": 0.1, "timeout": 0.1}})

    def test_slow_fault_carries_its_stall(self):
        plan = parse_schedule(
            {"worker": {"slow": 0.5, "slow_s": 0.05}}
        ).engine_plan()
        assert plan.slow == 0.5
        assert plan.slow_s == 0.05

    def test_unknown_keys_rejected_loudly(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_schedule({"worker": {"explode": 1.0}})
        with pytest.raises(ConfigError, match="unknown key"):
            parse_schedule({"serve": {"flood": 3}})
        with pytest.raises(ConfigError, match="unknown key"):
            parse_schedule({"typo_section": {}})

    def test_serve_section(self):
        schedule = parse_schedule(
            {"serve": {"queue_flood": 8, "clock_skew_s": 1.5}}
        )
        assert schedule.serve.queue_flood == 8
        assert schedule.serve.clock_skew_s == 1.5
        assert schedule.serve.active

    def test_negative_queue_flood_rejected(self):
        with pytest.raises(ConfigError, match="queue_flood"):
            parse_schedule({"serve": {"queue_flood": -1}})

    def test_campaign_section_maps_to_campaign_faults(self):
        schedule = parse_schedule(
            {"seed": 3, "worker": {"kill": 0.2},
             "campaign": {"ckill": 2, "tier_corrupt": 0.5}}
        )
        assert schedule.coordinator_kill_after == 2
        assert schedule.tier_corrupt == 0.5
        assert schedule.worker.kill == 0.2
        assert schedule.seed == 3

    def test_non_numeric_values_rejected(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_schedule({"worker": {"kill": "lots"}})
        with pytest.raises(ConfigError, match="ckill: expected an integer"):
            parse_schedule({"campaign": {"ckill": "soon"}})

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match=r"outside \[0, 1\]"):
            parse_schedule({"worker": {"kill": 1.5}})
        with pytest.raises(ConfigError, match="sum to more than 1"):
            parse_schedule({"worker": {"kill": 0.6, "error": 0.6}})

    def test_ckill_below_one_rejected(self):
        with pytest.raises(ConfigError, match="ckill=0 must be >= 1"):
            parse_schedule({"campaign": {"ckill": 0}})

    def test_tier_corrupt_above_one_rejected(self):
        with pytest.raises(ConfigError, match="tier_corrupt=1.5"):
            parse_schedule({"campaign": {"tier_corrupt": 1.5}})

    def test_same_seed_same_decisions(self):
        raw = {"seed": 9, "worker": {"kill": 0.3, "error": 0.3}}
        a, b = parse_schedule(raw).engine_plan(), parse_schedule(raw).engine_plan()
        decisions = [a.decide(f"run-{i}", 0) for i in range(50)]
        assert decisions == [b.decide(f"run-{i}", 0) for i in range(50)]
        assert any(decisions)  # the rates actually fire

    def test_describe_is_json_safe_and_minimal(self):
        schedule = parse_schedule(
            {"seed": 7, "worker": {"kill": 0.1}, "campaign": {"ckill": 1}}
        )
        body = json.loads(json.dumps(schedule.describe()))
        assert body["seed"] == 7
        assert body["worker"] == {"kill": 0.1}
        assert body["ckill"] == 1
        assert "serve" not in body  # inert sections stay out


class TestLoadSchedule:
    def test_round_trip_from_file(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({"seed": 5, "worker": {"torn": 0.1}}))
        schedule = load_schedule(path)
        assert isinstance(schedule, ChaosSchedule)
        assert schedule.engine_plan().torn == 0.1

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_schedule(tmp_path / "nope.json")

    def test_malformed_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_schedule(path)


class TestChaosClock:
    def test_skew_shifts_monotonic(self):
        try:
            base = clock.monotonic()
            clock.set_skew(100.0)
            assert clock.monotonic() >= base + 99.0
            assert clock.skew() == 100.0
        finally:
            clock.clear()
        assert clock.skew() == 0.0
