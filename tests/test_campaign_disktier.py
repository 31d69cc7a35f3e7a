"""The campaign disk tier: checksums, quarantine, corruption survival.

A campaign's tier is the one result store,
:class:`~repro.engine.store.CrashSafeStore`, opened at
``<workdir>/campaign.db``.  These cases pin what the coordinator relies
on when it resumes from that file.
"""

import sqlite3

import pytest

from repro.campaign.coordinator import TIER_FILENAME
from repro.engine.store import CrashSafeStore, checksum
from repro.errors import StoreCorruption


@pytest.fixture
def tier(tmp_path):
    with CrashSafeStore(tmp_path / TIER_FILENAME) as t:
        yield t


def flip_checksum(path, key):
    conn = sqlite3.connect(str(path))
    conn.execute("UPDATE results SET sum = 'deadbeef' WHERE key = ?", (key,))
    conn.commit()
    conn.close()


def mangle_value(path, key):
    conn = sqlite3.connect(str(path))
    conn.execute(
        "UPDATE results SET value = '{\"torn' WHERE key = ?", (key,)
    )
    conn.commit()
    conn.close()


class TestRoundTrip:
    def test_put_get(self, tier):
        tier.put("k1", {"stats": [1, 2, 3]})
        assert tier.get("k1") == {"stats": [1, 2, 3]}
        assert "k1" in tier
        assert len(tier) == 1

    def test_missing_key(self, tier):
        assert tier.get("nope") is None
        assert "nope" not in tier

    def test_overwrite_replaces(self, tier):
        tier.put("k", {"v": 1})
        tier.put("k", {"v": 2})
        assert tier.get("k") == {"v": 2}
        assert len(tier) == 1

    def test_scan_returns_everything_valid(self, tier):
        tier.put("a", 1)
        tier.put("b", 2)
        assert tier.scan() == {"a": 1, "b": 2}

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / TIER_FILENAME
        with CrashSafeStore(path) as t:
            t.put("k", {"v": 1})
        with CrashSafeStore(path) as t:
            assert t.get("k") == {"v": 1}


class TestRowQuarantine:
    def test_bad_checksum_row_quarantined(self, tmp_path):
        path = tmp_path / TIER_FILENAME
        with CrashSafeStore(path) as t:
            t.put("good", {"v": 1})
            t.put("bad", {"v": 2})
        flip_checksum(path, "bad")
        with CrashSafeStore(path) as t:
            assert t.get("bad") is None
            assert t.get("good") == {"v": 1}
            rows = t.quarantine_rows()
            assert rows == [("bad", "checksum mismatch")]
            # condemned rows leave the results table for good
            assert len(t) == 1
            assert t.scan() == {"good": {"v": 1}}

    def test_half_written_value_quarantined(self, tmp_path):
        path = tmp_path / TIER_FILENAME
        with CrashSafeStore(path) as t:
            t.put("torn", {"v": 1})
        mangle_value(path, "torn")
        with CrashSafeStore(path) as t:
            assert t.scan() == {}
            assert t.quarantine_rows() == [("torn", "invalid JSON")]

    def test_strict_mode_raises_instead(self, tmp_path):
        path = tmp_path / TIER_FILENAME
        with CrashSafeStore(path) as t:
            t.put("bad", {"v": 1})
        flip_checksum(path, "bad")
        with CrashSafeStore(path, strict=True) as t:
            with pytest.raises(StoreCorruption, match="checksum mismatch"):
                t.get("bad")

    def test_checksum_matches_store_convention(self, tier):
        value = {"stats": {"misses": 5}}
        tier.put("k", value)
        row = tier._conn.execute(
            "SELECT sum FROM results WHERE key = 'k'"
        ).fetchone()
        assert row[0] == checksum(value)


class TestFileQuarantine:
    def test_garbage_file_renamed_and_fresh_tier_started(self, tmp_path):
        path = tmp_path / TIER_FILENAME
        path.write_bytes(b"this is not a sqlite database at all\x00\xff" * 64)
        with CrashSafeStore(path) as t:
            assert t.quarantined_file is not None
            assert t.quarantined_file.exists()
            assert t.quarantined_file.name.startswith(f"{TIER_FILENAME}.corrupt-")
            t.put("k", {"v": 1})
            assert t.get("k") == {"v": 1}

    def test_garbage_file_strict_raises(self, tmp_path):
        path = tmp_path / TIER_FILENAME
        path.write_bytes(b"garbage" * 1024)
        with pytest.raises(StoreCorruption):
            CrashSafeStore(path, strict=True)

    def test_second_quarantine_gets_fresh_suffix(self, tmp_path):
        path = tmp_path / TIER_FILENAME
        for n in range(2):
            path.write_bytes(b"garbage" * 1024)
            with CrashSafeStore(path) as t:
                assert t.quarantined_file.name == f"{TIER_FILENAME}.corrupt-{n}"
