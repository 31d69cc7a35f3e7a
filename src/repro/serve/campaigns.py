"""Campaign orchestration endpoint for the analysis service.

``POST /v1/campaign`` submissions bypass the micro-batcher's admission
queue — a campaign is minutes of work, not a 30-second request — and
land here instead.  The :class:`CampaignManager` runs campaigns
**serially** on one executor thread against its own small
:class:`~repro.engine.pool.WorkerPool` — a separate pool only so that a
long campaign cannot take the batcher's workers; the pool class is
thread-safe, so :meth:`CampaignManager.stop` may close it from another
thread under the pool's lock — writing each campaign's durable state
under ``<root>/<campaign_id>/``.

Submission is idempotent by construction: the campaign id is the
content address of the spec, so re-POSTing the same spec attaches to
the running campaign or reports the finished one instead of launching a
duplicate.  A campaign found on disk in a non-finished state (the
previous server died mid-campaign) is resumed, not restarted — the
coordinator's journal + disk tier make that free of duplicated work.

Progress polling (``GET /v1/campaign/<id>``) replays the campaign's
journal from disk, so it works for live campaigns, finished ones, and
campaigns orphaned by a previous server process alike.
"""

from __future__ import annotations

import pathlib
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro.campaign.coordinator import (
    JOURNAL_FILENAME,
    RESULTS_FILENAME,
    Coordinator,
)
from repro.campaign.plan import compile_plan
from repro.campaign.spec import CampaignSpec
from repro.campaign.state import replay_journal
from repro.engine.journal import read_journal
from repro.errors import CampaignError
from repro.obs import runtime as obs

#: manager-level campaign states (the journal tracks item states)
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class CampaignManager:
    """Serial campaign executor with durable per-campaign state."""

    def __init__(self, root, jobs: int = 2, max_queued: int = 4):
        self.root = pathlib.Path(root)
        self.jobs = max(1, jobs)
        self.max_queued = max(1, max_queued)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: deque = deque()  # (CampaignSpec, allow_partial)
        self._states: Dict[str, Dict[str, object]] = {}
        self._thread: Optional[threading.Thread] = None
        self._pool = None
        self._stopping = threading.Event()

    # -- life cycle ---------------------------------------------------------

    def start(self) -> None:
        """Spin up the worker pool and the serial campaign thread."""
        if self._thread is not None:
            return
        from repro.engine.pool import WorkerPool

        self.root.mkdir(parents=True, exist_ok=True)
        self._pool = WorkerPool(jobs=self.jobs)
        self._stopping.clear()
        self._thread = threading.Thread(
            target=self._run_loop, name="serve-campaigns", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the campaign thread and tear down the worker pool."""
        if self._thread is None:
            return
        self._stopping.set()
        with self._work:
            self._work.notify_all()
        self._thread.join(timeout=10)
        self._thread = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # -- submission ----------------------------------------------------------

    def submit(self, spec: CampaignSpec, allow_partial: bool = False) -> dict:
        """Queue one campaign (idempotently); returns its status record.

        Raises :class:`~repro.errors.CampaignError` when the manager is
        not running or its backlog is full — the latter surfaces as a
        409, telling the client to poll and retry rather than pile up
        unbounded campaign state on disk.
        """
        if self._thread is None:
            raise CampaignError(
                "campaign orchestration is disabled "
                "(start the service with a campaign directory)"
            )
        campaign_id = spec.campaign_id
        with self._lock:
            known = self._states.get(campaign_id)
            if known is not None and known["state"] in (QUEUED, RUNNING):
                return dict(known)
            if self._finished_on_disk(campaign_id):
                record = self._record(
                    campaign_id, DONE, spec.name, note="already complete"
                )
                return dict(record)
            if len(self._queue) >= self.max_queued:
                raise CampaignError(
                    f"campaign backlog full ({self.max_queued} queued); "
                    "retry after the running campaign finishes"
                )
            record = self._record(campaign_id, QUEUED, spec.name)
            record["allow_partial"] = allow_partial
            self._queue.append((spec, allow_partial))
            obs.counter_add(
                "repro_serve_campaigns_total", 1,
                "campaigns accepted for orchestration",
            )
            self._work.notify_all()
            return dict(record)

    # -- status --------------------------------------------------------------

    def status(self, campaign_id: str) -> Optional[dict]:
        """Status + journal-replayed progress, or None for an unknown id."""
        with self._lock:
            record = self._states.get(campaign_id)
            body = dict(record) if record else None
        workdir = self.root / campaign_id
        journal = workdir / JOURNAL_FILENAME
        if body is None:
            if not journal.exists():
                return None
            # a campaign from a previous server process, known only on disk
            body = {"campaign": campaign_id, "state": self._disk_state(campaign_id)}
        if journal.exists():
            try:
                body["progress"] = replay_journal(
                    read_journal(journal), campaign_id
                ).describe()
            except CampaignError:
                pass  # journal exists but has no campaign_start yet
        results = workdir / RESULTS_FILENAME
        if body.get("state") == DONE and results.exists():
            import json

            try:
                body["results"] = json.loads(results.read_text())["results"]
            except (ValueError, KeyError, OSError):
                body["results"] = None
        return body

    def list_campaigns(self) -> List[dict]:
        """Every campaign this manager knows, in-memory or on disk."""
        with self._lock:
            known = {cid: dict(rec) for cid, rec in self._states.items()}
        if self.root.exists():
            for entry in sorted(self.root.iterdir()):
                if entry.is_dir() and (entry / JOURNAL_FILENAME).exists():
                    known.setdefault(
                        entry.name,
                        {"campaign": entry.name,
                         "state": self._disk_state(entry.name)},
                    )
        return [known[cid] for cid in sorted(known)]

    def readiness(self) -> dict:
        """The campaign component of ``GET /readyz``."""
        with self._lock:
            queued = len(self._queue)
            running = any(
                rec["state"] == RUNNING for rec in self._states.values()
            )
        return {
            "enabled": self._thread is not None,
            "queued": queued,
            "backlog": self.max_queued,
            "running": running,
            "saturated": queued >= self.max_queued,
        }

    # -- internals -----------------------------------------------------------

    def _record(self, campaign_id: str, state: str, name=None, **extra) -> dict:
        record = self._states.setdefault(
            campaign_id, {"campaign": campaign_id}
        )
        record["state"] = state
        if name is not None:
            record["name"] = name
        record.update(extra)
        record["updated_ts"] = round(time.time(), 3)
        return record

    def _finished_on_disk(self, campaign_id: str) -> bool:
        return self._disk_state(campaign_id) == DONE

    def _disk_state(self, campaign_id: str) -> str:
        workdir = self.root / campaign_id
        journal = workdir / JOURNAL_FILENAME
        if not journal.exists():
            return "unknown"
        try:
            state = replay_journal(read_journal(journal), campaign_id)
        except CampaignError:
            return "unknown"
        if state.finished and (workdir / RESULTS_FILENAME).exists():
            counts = state.counts()
            return DONE if counts["failed"] == 0 else FAILED
        return "interrupted"

    def _run_loop(self) -> None:
        while not self._stopping.is_set():
            with self._work:
                while not self._queue and not self._stopping.is_set():
                    self._work.wait(timeout=0.2)
                if self._stopping.is_set():
                    return
                spec, allow_partial = self._queue.popleft()
            campaign_id = spec.campaign_id
            with self._lock:
                self._record(campaign_id, RUNNING, spec.name)
            try:
                plan = compile_plan(spec)
                workdir = self.root / campaign_id
                resume = (workdir / JOURNAL_FILENAME).exists()
                report = Coordinator(
                    plan,
                    workdir,
                    pool=self._pool,
                    jobs=self.jobs,
                    allow_partial=allow_partial,
                ).run(resume=resume)
                with self._lock:
                    self._record(
                        campaign_id,
                        DONE if report.ok else FAILED,
                        spec.name,
                        report=report.describe(),
                    )
            except Exception as exc:
                with self._lock:
                    self._record(
                        campaign_id, FAILED, spec.name,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                obs.counter_add(
                    "repro_serve_campaign_failures_total", 1,
                    "campaigns that ended in failure",
                )
