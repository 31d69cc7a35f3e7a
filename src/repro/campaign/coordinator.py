"""Lease-based campaign coordinator.

The coordinator executes a :class:`~repro.campaign.plan.CampaignPlan`
across engine worker subprocesses leased from a
:class:`~repro.engine.pool.WorkerPool`: a caller's long-lived one
(``repro serve`` keeps a separate pool for campaigns, for capacity
isolation only), or a private one that lives for the campaign run and
starts no heartbeat thread.  It differs from
:class:`~repro.engine.core.ExperimentEngine` in what it promises: the
engine promises one outcome per request in one process's lifetime; the
coordinator promises a campaign that *survives its own death*.

The lease loop and its record are
:meth:`~repro.engine.core.ExperimentEngine.execute`, shared with
``run-all``: every attempt is journaled ``start``, a broken lease
``retry`` or ``fallback`` (with its reason), and every item ``finish``
once its result is committed to the durable result store
(:class:`~repro.engine.store.CrashSafeStore`, the campaign's disk tier).
This module adds only what a campaign needs on top:

* the framing events ``campaign_start`` / ``campaign_resume`` /
  ``campaign_finish``;
* the recovery scan: resume replays the journal (tolerating the torn
  tail a SIGKILL leaves), rescans the tier — quarantining corrupt rows
  and journaling them ``item_quarantined`` — and re-runs exactly the
  items with no valid committed artifact.  The tier, not the journal,
  decides what is done, so a crash between a commit and its ``finish``
  event costs nothing: zero duplicated simulations, byte-identical
  results;
* ``allow_partial``: items whose ladder ends in ``failed`` fail the
  campaign unless partial results are accepted.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict

from repro.campaign.plan import CampaignPlan
from repro.engine.core import (
    STATUS_CACHED,
    EngineConfig,
    ExperimentEngine,
    RunOutcome,
    Task,
)
from repro.engine.faults import KillAfterCommits
from repro.engine.journal import RunJournal, read_journal
from repro.engine.store import CrashSafeStore
from repro.errors import CampaignError
from repro.experiments.runner import unpack_record
from repro.guard.config import GuardConfig
from repro.obs import runtime as obs

TIER_FILENAME = "campaign.db"
JOURNAL_FILENAME = "journal.jsonl"
RESULTS_FILENAME = "results.json"


@dataclass
class CampaignReport:
    """What one :meth:`Coordinator.run` accomplished."""

    campaign_id: str
    plan_digest: str
    resumed: bool
    duration: float
    outcomes: Dict[str, RunOutcome] = field(default_factory=dict)  # by item id
    quarantined: int = 0

    @property
    def completed(self) -> int:
        return sum(
            1 for o in self.outcomes.values() if o.status != "failed"
        )

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == "cached")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == "failed")

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def results_document(self) -> Dict[str, object]:
        """The deterministic results artifact (``results.json``).

        Contains only content that is identical between a fault-free
        campaign and a killed-and-resumed one: the campaign/plan
        addresses and each item's simulation statistics.  Attempt
        counts, durations and degraded/cached provenance live in the
        journal, not here — they legitimately differ across runs.
        """
        results = {}
        for item_id in sorted(self.outcomes):
            outcome = self.outcomes[item_id]
            if outcome.stats is None:
                continue
            import dataclasses

            results[item_id] = {
                "key": outcome.key,
                "stats": dataclasses.asdict(outcome.stats),
            }
        return {
            "campaign": self.campaign_id,
            "plan": self.plan_digest,
            "results": results,
        }

    def describe(self) -> Dict[str, object]:
        """A JSON-safe summary of the run (journal / serve status body)."""
        return {
            "campaign": self.campaign_id,
            "plan": self.plan_digest,
            "resumed": self.resumed,
            "items": len(self.outcomes),
            "completed": self.completed,
            "cached": self.cached,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "duration": round(self.duration, 6),
        }


class Coordinator:
    """Run (or resume) one campaign inside a work directory.

    ``workdir`` accumulates the campaign's durable state: the SQLite
    disk tier (``campaign.db``), the JSONL journal (``journal.jsonl``)
    and, after a successful run, the deterministic ``results.json``.
    ``pool`` is an optional :class:`~repro.engine.pool.WorkerPool` to
    lease warm workers from; without one each run leases from a private
    pool closed when the run ends.  ``faults`` is a
    :class:`~repro.chaos.ChaosSchedule` (the ``--chaos`` config): its
    worker plan reaches every lease and its ``ckill`` kills the
    coordinator after that many durable commits.
    """

    def __init__(
        self,
        plan: CampaignPlan,
        workdir,
        pool=None,
        jobs: int = 4,
        allow_partial: bool = False,
        faults=None,
        journal_fsync: bool = False,
    ):
        self.plan = plan
        self.workdir = pathlib.Path(workdir)
        self.pool = pool
        self.jobs = max(1, jobs)
        self.allow_partial = allow_partial
        self.faults = faults
        self.journal_fsync = journal_fsync

    # -- paths ---------------------------------------------------------------

    @property
    def tier_path(self) -> pathlib.Path:
        return self.workdir / TIER_FILENAME

    @property
    def journal_path(self) -> pathlib.Path:
        return self.workdir / JOURNAL_FILENAME

    @property
    def results_path(self) -> pathlib.Path:
        return self.workdir / RESULTS_FILENAME

    # -- public API ----------------------------------------------------------

    def run(self, resume: bool = False) -> CampaignReport:
        """Execute the plan to completion; resumable after any crash.

        ``resume=True`` requires a journal from a previous run of the
        *same* plan (digest-checked) and re-runs only uncommitted work.
        Raises :class:`~repro.errors.CampaignError` when the campaign
        cannot start (bad resume) or finishes with failed items and
        ``allow_partial`` is off.
        """
        started = time.monotonic()
        self.workdir.mkdir(parents=True, exist_ok=True)
        if resume:
            self._check_resumable()
        with contextlib.ExitStack() as stack:
            journal = stack.enter_context(
                RunJournal(self.journal_path, fsync=self.journal_fsync)
            )
            tier = stack.enter_context(CrashSafeStore(self.tier_path))
            committed, quarantined = self._recover(tier, journal)
            if resume:
                journal.emit(
                    "campaign_resume",
                    campaign=self.plan.campaign_id,
                    plan=self.plan.digest,
                    committed=len(committed),
                    quarantined=quarantined,
                )
                obs.counter_add(
                    "repro_campaign_resumes_total", 1,
                    "campaign resume operations",
                )
            else:
                journal.emit(
                    "campaign_start",
                    campaign=self.plan.campaign_id,
                    plan=self.plan.digest,
                    items=len(self.plan.items),
                    name=self.plan.spec.name,
                )
            report = CampaignReport(
                campaign_id=self.plan.campaign_id,
                plan_digest=self.plan.digest,
                resumed=resume,
                duration=0.0,
                quarantined=quarantined,
            )
            pending = []
            for item in self.plan.items:
                record = committed.get(item.key)
                if record is None:
                    pending.append(item)
                else:
                    report.outcomes[item.item_id] = RunOutcome(
                        item.request, STATUS_CACHED, record[0]
                    )
            if pending:
                kill_after = (
                    self.faults.coordinator_kill_after if self.faults else None
                )
                if kill_after is not None:
                    tier = KillAfterCommits(tier, kill_after)
                with obs.span(
                    "campaign.execute",
                    campaign=self.plan.campaign_id, items=len(pending),
                ):
                    outcomes = self._engine().execute(
                        [
                            Task(index=i, request=item.request, key=item.key)
                            for i, item in enumerate(pending)
                        ],
                        tier, journal,
                    )
                for item in pending:
                    report.outcomes[item.item_id] = outcomes[item.key]
            report.duration = round(time.monotonic() - started, 6)
            journal.emit(
                "campaign_finish",
                campaign=self.plan.campaign_id,
                completed=report.completed,
                failed=report.failed,
                duration=report.duration,
            )
        self._write_results(report)
        if report.failed and not self.allow_partial:
            raise CampaignError(
                f"campaign {self.plan.campaign_id}: {report.failed} of "
                f"{len(self.plan.items)} items failed "
                "(pass --allow-partial to accept partial results)"
            )
        return report

    # -- recovery ------------------------------------------------------------

    def _check_resumable(self) -> None:
        from repro.campaign.state import replay_journal

        if not self.journal_path.exists():
            raise CampaignError(
                f"nothing to resume: no journal at {self.journal_path}"
            )
        state = replay_journal(
            read_journal(self.journal_path), self.plan.campaign_id
        )
        if state.plan_digest != self.plan.digest:
            raise CampaignError(
                f"refusing to resume campaign {self.plan.campaign_id}: "
                f"journal was written for plan {state.plan_digest}, the "
                f"spec now compiles to plan {self.plan.digest} "
                "(the spec changed since the original launch)"
            )

    def _recover(self, tier: CrashSafeStore, journal) -> tuple:
        """Scan the tier for committed work; quarantine what fails.

        Returns ``(committed, quarantined)`` where ``committed`` maps
        run-request keys to unpacked ``(stats, status)`` and
        ``quarantined`` counts artifacts condemned during this scan —
        corrupt rows dropped by the tier plus rows whose payload shape
        no longer unpacks.  Every condemned item is journaled so replay
        knows it went back to pending.
        """
        snapshot = tier.scan()
        committed: Dict[str, tuple] = {}
        quarantined = 0
        quarantine_keys = {key for key, _reason in tier.quarantine_rows()}
        for item in self.plan.items:
            record = snapshot.get(item.key)
            if record is not None:
                try:
                    committed[item.key] = unpack_record(record)
                    continue
                except (TypeError, KeyError):
                    journal.emit(
                        "item_quarantined", run=item.key,
                        reason="unpackable record",
                    )
                    quarantined += 1
                    continue
            if item.key in quarantine_keys:
                journal.emit(
                    "item_quarantined", run=item.key,
                    reason="checksum mismatch",
                )
                quarantined += 1
        return committed, quarantined

    # -- execution -----------------------------------------------------------

    def _engine(self) -> ExperimentEngine:
        """The shared lease scheduler under this campaign's policy."""
        spec = self.plan.spec
        policy = spec.policy
        config = EngineConfig(
            jobs=self.jobs,
            timeout=policy.timeout_s,
            retries=policy.retries,
            backoff_base=policy.backoff_base_s,
            backoff_cap=policy.backoff_cap_s,
            fallback=policy.fallback,
            seed=spec.seed,
            faults=self.faults.worker if self.faults else None,
            guard=GuardConfig.from_record(spec.guard),
            tier=policy.tier,
        )
        return ExperimentEngine(config, pool=self.pool)

    def _write_results(self, report: CampaignReport) -> None:
        import json

        tmp = self.results_path.with_name(self.results_path.name + ".tmp")
        with open(tmp, "w") as fh:
            json.dump(report.results_document(), fh, sort_keys=True, indent=1)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.results_path)
