"""Journal-replay helpers shared by the chaos harnesses and suites.

Every chaos scenario ends the same way: replay the campaign/engine
journal and prove an invariant — "no committed item was re-simulated",
"every corrupted row was quarantined".  These small replays used to be
copy-pasted between :mod:`scripts.campaign_chaos` and the campaign
chaos test suite; they live here now so the SLO storm harness
(:mod:`scripts.chaos_slo`) gets them too.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.campaign.plan import item_id_for
from repro.engine.journal import read_journal


def committed_items(journal_path) -> List[str]:
    """Item ids with a successful ``finish`` event, in journal order."""
    return [
        item_id_for(event["run"])
        for event in read_journal(journal_path)
        if event.get("event") == "finish" and event.get("status") != "failed"
    ]


def leased_after_resume(journal_path) -> List[str]:
    """Item ids leased (``start``) after the LAST ``campaign_resume``."""
    leased: List[str] = []
    seen_resume = False
    for event in read_journal(journal_path):
        if event.get("event") == "campaign_resume":
            leased, seen_resume = [], True
        elif event.get("event") == "start" and seen_resume:
            leased.append(item_id_for(event["run"]))
    return leased


def quarantined_items(journal_path) -> List[str]:
    """Item ids quarantined (corrupt tier rows / payloads), journal order."""
    return [
        item_id_for(event["run"])
        for event in read_journal(journal_path)
        if event.get("event") == "item_quarantined"
    ]


def resimulation_violations(
    journal_path, committed_before: Sequence[str], exempt: Sequence[str] = ()
) -> List[str]:
    """Committed items a resume re-simulated anyway (should be empty).

    ``exempt`` names items that *must* re-run — e.g. rows the scenario
    deliberately corrupted on disk.
    """
    resimulated = set(leased_after_resume(journal_path))
    return sorted((set(committed_before) - set(exempt)) & resimulated)
