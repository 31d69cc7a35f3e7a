"""Campaign state, replayed from the journal.

A campaign journals through the engine's one recorder
(:meth:`repro.engine.core.ExperimentEngine.execute`), framed by the
coordinator's own events, so the campaign's entire history is a fold
over journal events::

    campaign_start    {campaign, plan, items, name}
    start             {run, attempt, simulator, worker}   # lease taken
    retry             {run, attempt, delay, reason}       # lease broken
    fallback          {run, simulator, reason}            # lease broken
    finish            {run, status, attempts, duration}   # terminal
    item_quarantined  {run, reason}   # corrupt artifact dropped
    campaign_resume   {campaign, plan, committed, quarantined}
    campaign_finish   {campaign, completed, failed, duration}

Per-run events name the run by its request key; the item id is
:func:`~repro.campaign.plan.item_id_for` of that key.  A ``finish``
whose status is ``failed`` ends the item's ladder (and, like ``retry``
and ``fallback``, breaks a lease); any other status completes it.

:func:`replay_journal` rebuilds a :class:`CampaignState` from those
events, tolerating the torn tail line a SIGKILL leaves behind (via
:func:`repro.engine.journal.read_journal`).  A lease with no later
terminal event means the coordinator died mid-item — replay files it
back under ``pending``, which is exactly the resume semantics: the disk
tier (not the lease) decides what is already done.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign.plan import item_id_for
from repro.errors import CampaignError

#: item states a replay can produce
PENDING = "pending"
LEASED = "leased"
COMPLETED = "completed"
FAILED = "failed"


@dataclass
class CampaignState:
    """Mutable fold state for one campaign's journal events."""

    campaign_id: str
    plan_digest: Optional[str] = None
    name: Optional[str] = None
    total_items: int = 0
    items: Dict[str, str] = field(default_factory=dict)  # item_id -> state
    statuses: Dict[str, str] = field(default_factory=dict)  # terminal status
    resumes: int = 0
    releases: int = 0
    quarantines: int = 0
    finished: bool = False

    def counts(self) -> Dict[str, int]:
        """Item tally by state, plus the never-journaled remainder."""
        tally = {PENDING: 0, LEASED: 0, COMPLETED: 0, FAILED: 0}
        for state in self.items.values():
            tally[state] += 1
        untouched = max(0, self.total_items - len(self.items))
        tally[PENDING] += untouched
        return tally

    def state_of(self, item_id: str) -> str:
        """The item's replayed state; untouched items are pending."""
        return self.items.get(item_id, PENDING)

    def describe(self) -> Dict[str, object]:
        """JSON-safe progress summary (CLI status, serve polling)."""
        counts = self.counts()
        return {
            "campaign": self.campaign_id,
            "name": self.name,
            "plan": self.plan_digest,
            "items": self.total_items,
            "pending": counts[PENDING],
            "leased": counts[LEASED],
            "completed": counts[COMPLETED],
            "failed": counts[FAILED],
            "resumes": self.resumes,
            "releases": self.releases,
            "quarantines": self.quarantines,
            "finished": self.finished,
        }


def replay_journal(
    events: List[dict], campaign_id: Optional[str] = None
) -> CampaignState:
    """Fold journal events into the state of one campaign.

    ``campaign_id`` selects which campaign to replay when the journal
    interleaves several; by default the journal's first ``campaign_start``
    wins.  Raises :class:`~repro.errors.CampaignError` when the requested
    campaign never started in this journal.
    """
    state: Optional[CampaignState] = None
    for event in events:
        kind = event.get("event")
        if kind == "campaign_start":
            found = event.get("campaign")
            if campaign_id is None:
                campaign_id = found
            if found != campaign_id:
                continue
            if state is None:
                state = CampaignState(
                    campaign_id=campaign_id,
                    plan_digest=event.get("plan"),
                    name=event.get("name"),
                    total_items=int(event.get("items", 0)),
                )
            continue
        if state is None:
            continue
        if kind == "campaign_resume":
            if event.get("campaign") == campaign_id:
                state.resumes += 1
                # broken leases from the dead coordinator are void
                for item_id, item_state in list(state.items.items()):
                    if item_state == LEASED:
                        state.items[item_id] = PENDING
            continue
        if kind == "campaign_finish":
            if event.get("campaign") == campaign_id:
                state.finished = True
            continue
        run = event.get("run")
        if not run:
            continue
        item_id = item_id_for(run)
        if kind == "start":
            if state.items.get(item_id) not in (COMPLETED, FAILED):
                state.items[item_id] = LEASED
        elif kind in ("retry", "fallback"):
            if state.items.get(item_id) == LEASED:
                state.items[item_id] = PENDING
            state.releases += 1
        elif kind == "finish":
            status = event.get("status", "ok")
            if status == FAILED:
                state.releases += 1
                state.items[item_id] = FAILED
            else:
                state.items[item_id] = COMPLETED
            state.statuses[item_id] = status
        elif kind == "item_quarantined":
            # the committed artifact was condemned: the item must re-run
            state.items[item_id] = PENDING
            state.statuses.pop(item_id, None)
            state.quarantines += 1
    if state is None:
        raise CampaignError(
            f"journal has no campaign_start"
            + (f" for campaign {campaign_id!r}" if campaign_id else "")
        )
    return state
