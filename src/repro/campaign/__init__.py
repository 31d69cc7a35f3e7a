"""Crash-resumable distributed campaign orchestration.

A **campaign** is the paper's whole evaluation cross-product — benchmark
selectors x cache-geometry grid x padding heuristics — written down as a
declarative JSON spec, compiled into a deterministic content-addressed
work plan, and executed by a coordinator that shards items across leased
workers from the warm :class:`~repro.engine.pool.WorkerPool`.

Robustness is the design center:

* every simulation result is committed to the durable SQLite result
  store (:class:`~repro.engine.store.CrashSafeStore`, the campaign's
  **disk tier**) under a content-addressed key with a per-row checksum
  — corrupt rows are quarantined, never trusted and never fatal;
* worker **leases** carry deadlines and liveness heartbeats, so a
  crashed or hung worker's items are re-leased with backoff instead of
  lost;
* every run is **journaled** by the engine's one recorder, exactly as
  ``run-all`` journals it (``start`` / ``retry`` / ``fallback`` /
  ``finish``), and a killed campaign resumes from journal + disk tier
  with zero duplicated simulations;
* ``--allow-partial`` degrades gracefully to partial results when items
  keep failing.

Entry points: ``repro campaign run/resume/status`` on the CLI and
``POST /v1/campaign`` on the analysis service.  See docs/CAMPAIGNS.md.
"""

from repro.campaign.coordinator import CampaignReport, Coordinator
from repro.campaign.plan import CampaignPlan, WorkItem, compile_plan
from repro.campaign.spec import CampaignPolicy, CampaignSpec, parse_spec
from repro.campaign.state import CampaignState, replay_journal

__all__ = [
    "CampaignPlan",
    "CampaignPolicy",
    "CampaignReport",
    "CampaignSpec",
    "CampaignState",
    "Coordinator",
    "WorkItem",
    "compile_plan",
    "parse_spec",
    "replay_journal",
]
