"""Seeded, JSON-loadable fault schedules spanning every subsystem.

One schedule file drives chaos everywhere::

    {
      "seed": 7,
      "worker":   {"kill": 0.05, "hang": 0.05, "slow": 0.05,
                   "slow_s": 0.2, "error": 0.05, "corrupt": 0.05,
                   "torn": 0.02, "layout": 0.0},
      "serve":    {"queue_flood": 16, "clock_skew_s": 0.0},
      "campaign": {"ckill": 2, "tier_corrupt": 0.25}
    }

* ``worker`` rates become an engine :class:`~repro.engine.faults.FaultPlan`
  (``hang`` is the schedule-level name for the engine's ``timeout`` kind —
  the *worker* hangs; whether that becomes a timeout is the parent's job).
  The same plan reaches engine sweeps, serve micro-batches and campaign
  leases, because all three dispatch through the same worker protocol.
* ``serve`` holds service-level faults: ``queue_flood`` adds phantom
  depth to every admission decision (as if that many requests were
  already queued), and ``clock_skew_s`` shifts the resilience clock
  (:mod:`repro.chaos.clock`) while the service runs.
* ``campaign`` carries the coordinator-level extras: ``ckill=N`` hard-
  exits the coordinator right after its Nth durable commit (between the
  disk-tier write and the journal event, the most adversarial instant),
  and ``tier_corrupt`` is the fraction of disk-tier rows
  :func:`~repro.engine.faults.corrupt_disk_tier` damages between runs.

Unknown keys are rejected loudly — a typo'd fault that silently never
fires would make a chaos suite prove nothing.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Optional

from repro.engine.faults import FAULT_KINDS, FaultPlan
from repro.errors import ConfigError

#: schedule-level worker fault keys (``hang`` aliases engine ``timeout``)
_WORKER_KEYS = tuple(
    "hang" if kind == "timeout" else kind for kind in FAULT_KINDS
) + ("timeout", "slow_s")
_SERVE_KEYS = ("queue_flood", "clock_skew_s")
_CAMPAIGN_KEYS = ("ckill", "tier_corrupt")


@dataclass(frozen=True)
class ServeFaults:
    """Service-level fault knobs of one schedule."""

    queue_flood: int = 0      # phantom queued requests added to admission
    clock_skew_s: float = 0.0  # resilience-clock skew while serving

    def __post_init__(self):
        if self.queue_flood < 0:
            raise ConfigError(
                f"serve.queue_flood={self.queue_flood} must be >= 0"
            )

    @property
    def active(self) -> bool:
        return self.queue_flood > 0 or self.clock_skew_s != 0.0


@dataclass(frozen=True)
class ChaosSchedule:
    """One deterministic fault schedule for engine + serve + campaign.

    ``worker`` is ``None`` when the schedule injects no worker faults.
    Replaying the same schedule injects exactly the same faults at the
    same (key, attempt) points — all decisions hash the shared ``seed``.
    """

    seed: int = 0
    worker: Optional[FaultPlan] = None
    serve: ServeFaults = ServeFaults()
    coordinator_kill_after: Optional[int] = None
    tier_corrupt: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.tier_corrupt <= 1.0:
            raise ConfigError(
                f"chaos schedule campaign.tier_corrupt={self.tier_corrupt} "
                "outside [0, 1]"
            )
        if (
            self.coordinator_kill_after is not None
            and self.coordinator_kill_after < 1
        ):
            raise ConfigError(
                f"chaos schedule campaign.ckill={self.coordinator_kill_after} "
                "must be >= 1"
            )

    def engine_plan(self) -> Optional[FaultPlan]:
        """The worker-fault plan engine sweeps should inject (or None)."""
        return self.worker

    def describe(self) -> dict:
        """JSON-safe summary (for logs and the SLO harness report)."""
        body: dict = {"seed": self.seed}
        if self.worker is not None:
            body["worker"] = {
                kind: getattr(self.worker, kind)
                for kind in FAULT_KINDS
                if getattr(self.worker, kind) > 0
            }
            if self.worker.slow > 0:
                body["worker"]["slow_s"] = self.worker.slow_s
        if self.serve.active:
            body["serve"] = {
                "queue_flood": self.serve.queue_flood,
                "clock_skew_s": self.serve.clock_skew_s,
            }
        if self.coordinator_kill_after is not None:
            body["ckill"] = self.coordinator_kill_after
        if self.tier_corrupt:
            body["tier_corrupt"] = self.tier_corrupt
        return body


def _require_section(raw, name: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(
            f"chaos schedule section {name!r} must be an object, "
            f"got {type(raw).__name__}"
        )
    return raw


def _reject_unknown(section: dict, known, name: str) -> None:
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(
            f"chaos schedule {name}: unknown key(s) "
            f"{', '.join(map(repr, unknown))}; known: {', '.join(known)}"
        )


def _number(section: dict, key: str, default, name: str):
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"chaos schedule {name}.{key}: expected a number")
    return value


def parse_schedule(raw) -> ChaosSchedule:
    """Build a :class:`ChaosSchedule` from a decoded JSON object."""
    raw = _require_section(raw, "schedule")
    _reject_unknown(raw, ("seed", "worker", "serve", "campaign"), "schedule")
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("chaos schedule seed: expected an integer")

    worker: Optional[FaultPlan] = None
    if raw.get("worker") is not None:
        section = _require_section(raw["worker"], "worker")
        _reject_unknown(section, _WORKER_KEYS, "worker")
        if "hang" in section and "timeout" in section:
            raise ConfigError(
                "chaos schedule worker: give 'hang' or 'timeout', not both"
            )
        kwargs = {"seed": seed}
        for kind in FAULT_KINDS:
            key = "hang" if kind == "timeout" and "hang" in section else kind
            if key in section:
                kwargs[kind] = float(_number(section, key, 0.0, "worker"))
        if "slow_s" in section:
            kwargs["slow_s"] = float(_number(section, "slow_s", 0.25, "worker"))
        plan = FaultPlan(**kwargs)
        if any(getattr(plan, kind) for kind in FAULT_KINDS):
            worker = plan

    serve = ServeFaults()
    if raw.get("serve") is not None:
        section = _require_section(raw["serve"], "serve")
        _reject_unknown(section, _SERVE_KEYS, "serve")
        flood = _number(section, "queue_flood", 0, "serve")
        if not isinstance(flood, int):
            raise ConfigError("chaos schedule serve.queue_flood: expected an integer")
        serve = ServeFaults(
            queue_flood=flood,
            clock_skew_s=float(_number(section, "clock_skew_s", 0.0, "serve")),
        )

    kill_after: Optional[int] = None
    tier_corrupt = 0.0
    if raw.get("campaign") is not None:
        section = _require_section(raw["campaign"], "campaign")
        _reject_unknown(section, _CAMPAIGN_KEYS, "campaign")
        if section.get("ckill") is not None:
            ckill = section["ckill"]
            if isinstance(ckill, bool) or not isinstance(ckill, int):
                raise ConfigError("chaos schedule campaign.ckill: expected an integer")
            kill_after = ckill
        tier_corrupt = float(_number(section, "tier_corrupt", 0.0, "campaign"))

    return ChaosSchedule(
        seed=seed,
        worker=worker,
        serve=serve,
        coordinator_kill_after=kill_after,
        tier_corrupt=tier_corrupt,
    )


def load_schedule(path) -> ChaosSchedule:
    """Read and validate one schedule file (the ``--chaos`` flag)."""
    schedule_path = pathlib.Path(path)
    try:
        raw = json.loads(schedule_path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read chaos schedule {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(
            f"chaos schedule {path} is not valid JSON: {exc}"
        ) from None
    return parse_schedule(raw)
