"""Recovery edges: torn journal tails, half-written and corrupt tier rows.

The contract under test: every corrupted artifact is quarantined —
never trusted, never fatal — and a resume re-simulates exactly the
items whose committed results were lost.
"""

import json
import sqlite3

import pytest

from repro.campaign.coordinator import Coordinator
from repro.campaign.plan import compile_plan
from repro.campaign.spec import parse_spec
from repro.campaign.state import replay_journal
from repro.chaos.report import leased_after_resume
from repro.engine.faults import corrupt_disk_tier
from repro.engine.journal import read_journal
from repro.errors import CampaignError

pytestmark = [pytest.mark.engine]


def small_plan():
    return compile_plan(parse_spec({
        "name": "recovery",
        "benchmarks": ["dot", "jacobi"],
        "heuristics": ["pad"],
        "caches": [{"size": "8K", "line": 32}],
        "seed": 21,
        "policy": {"backoff_base_s": 0.0},
    }))


def events(workdir, name):
    return [
        row for row in read_journal(workdir / "journal.jsonl")
        if row.get("event") == name
    ]


class TestTornJournal:
    def test_truncated_tail_tolerated_on_replay(self, tmp_path):
        plan = small_plan()
        Coordinator(plan, tmp_path, jobs=2).run()
        journal = tmp_path / "journal.jsonl"
        # tear the file mid-record, as a crash during a write would
        blob = journal.read_bytes()
        journal.write_bytes(blob + b'{"event": "fini')
        state = replay_journal(read_journal(journal), plan.campaign_id)
        assert state.counts()["completed"] == len(plan.items)

    def test_resume_after_torn_tail(self, tmp_path):
        plan = small_plan()
        Coordinator(plan, tmp_path, jobs=2).run()
        journal = tmp_path / "journal.jsonl"
        journal.write_bytes(journal.read_bytes() + b'{"torn":')
        report = Coordinator(plan, tmp_path, jobs=2).run(resume=True)
        assert report.ok
        assert report.cached == len(plan.items)

    def test_replay_without_start_event_refused(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text('{"event": "finish", "run": "x"}\n')
        with pytest.raises(CampaignError):
            replay_journal(read_journal(journal))


class TestCorruptTier:
    def test_bad_checksum_rows_quarantined_and_rerun(self, tmp_path):
        plan = small_plan()
        Coordinator(plan, tmp_path, jobs=2).run()
        reference = (tmp_path / "results.json").read_bytes()
        flipped = corrupt_disk_tier(tmp_path / "campaign.db", 1.0, seed=5)
        assert flipped == len(plan.items)
        report = Coordinator(plan, tmp_path, jobs=2).run(resume=True)
        assert report.ok
        assert report.quarantined == flipped
        assert report.cached == 0
        assert len(events(tmp_path, "item_quarantined")) == flipped
        assert (tmp_path / "results.json").read_bytes() == reference

    def test_partial_corruption_reruns_only_lost_items(self, tmp_path):
        plan = small_plan()
        Coordinator(plan, tmp_path, jobs=2).run()
        reference = (tmp_path / "results.json").read_bytes()
        conn = sqlite3.connect(str(tmp_path / "campaign.db"))
        conn.execute(
            "UPDATE results SET sum = 'deadbeef' WHERE key = ?",
            (plan.items[0].key,),
        )
        conn.commit()
        conn.close()
        report = Coordinator(plan, tmp_path, jobs=2).run(resume=True)
        assert report.ok
        assert report.quarantined == 1
        assert report.cached == len(plan.items) - 1
        assert (tmp_path / "results.json").read_bytes() == reference

    def test_half_written_row_quarantined_on_resume(self, tmp_path):
        plan = small_plan()
        Coordinator(plan, tmp_path, jobs=2).run()
        reference = (tmp_path / "results.json").read_bytes()
        conn = sqlite3.connect(str(tmp_path / "campaign.db"))
        key = plan.items[0].key
        conn.execute(
            "UPDATE results SET value = '{\"half-writ' WHERE key = ?",
            (key,),
        )
        conn.commit()
        conn.close()
        report = Coordinator(plan, tmp_path, jobs=2).run(resume=True)
        assert report.ok
        assert report.quarantined == 1
        assert (tmp_path / "results.json").read_bytes() == reference

    def test_whole_file_corruption_restarts_campaign(self, tmp_path):
        plan = small_plan()
        Coordinator(plan, tmp_path, jobs=2).run()
        reference = (tmp_path / "results.json").read_bytes()
        (tmp_path / "campaign.db").write_bytes(b"\xde\xad\xbe\xef" * 4096)
        report = Coordinator(plan, tmp_path, jobs=2).run(resume=True)
        assert report.ok
        assert report.cached == 0  # nothing salvageable, everything re-ran
        assert (tmp_path / "results.json").read_bytes() == reference
        assert (tmp_path / "campaign.db.corrupt-0").exists()

    def test_unpackable_payload_shape_quarantined(self, tmp_path):
        plan = small_plan()
        Coordinator(plan, tmp_path, jobs=2).run()
        # a row that passes its checksum but no longer unpacks as a
        # (stats, status) record: e.g. an old schema or foreign payload
        from repro.engine.store import CrashSafeStore

        with CrashSafeStore(tmp_path / "campaign.db") as tier:
            tier.put(plan.items[0].key, {"unexpected": "shape"})
        report = Coordinator(plan, tmp_path, jobs=2).run(resume=True)
        assert report.ok
        assert report.quarantined == 1
        doc = json.loads((tmp_path / "results.json").read_text())
        assert len(doc["results"]) == len(plan.items)


class TestPreChangeJournal:
    """A workdir journaled in the retired per-item vocabulary
    (``item_leased`` / ``item_completed`` / ...) still resumes: the tier
    scan, not the journal, decides what is done."""

    def test_resume_reruns_only_what_the_tier_lacks(self, tmp_path):
        plan = small_plan()
        Coordinator(plan, tmp_path, jobs=2).run()
        reference = (tmp_path / "results.json").read_bytes()
        journal = tmp_path / "journal.jsonl"
        start = events(tmp_path, "campaign_start")[0]
        lines = [start]
        for item in plan.items:
            lines.append({"event": "item_leased", "item": item.item_id,
                          "attempt": 1, "worker": 1, "simulator": "fast"})
            lines.append({"event": "item_completed", "item": item.item_id,
                          "status": "ok", "attempts": 1, "duration": 0.1})
        lines.append({"event": "campaign_finish",
                      "campaign": plan.campaign_id,
                      "completed": len(plan.items), "failed": 0,
                      "duration": 0.1})
        journal.write_text("".join(json.dumps(row) + "\n" for row in lines))
        lost = plan.items[0]
        conn = sqlite3.connect(str(tmp_path / "campaign.db"))
        conn.execute("DELETE FROM results WHERE key = ?", (lost.key,))
        conn.commit()
        conn.close()

        report = Coordinator(plan, tmp_path, jobs=2).run(resume=True)
        assert report.ok
        assert report.cached == len(plan.items) - 1
        assert report.outcomes[lost.item_id].status == "ok"
        assert leased_after_resume(journal) == [lost.item_id]
        assert (tmp_path / "results.json").read_bytes() == reference
