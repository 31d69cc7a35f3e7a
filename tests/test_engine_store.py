"""The one result store: SQLite commits, per-row checksums, quarantine."""

import sqlite3
import subprocess
import sys

import pytest

from repro.engine.store import CrashSafeStore
from repro.errors import StoreCorruption


@pytest.fixture
def store(tmp_path):
    with CrashSafeStore(tmp_path / "s.db") as s:
        yield s


def update_row(path, key, **columns):
    """Rewrite raw columns of one row, bypassing the store (bit rot)."""
    assignments = ", ".join(f"{column} = ?" for column in columns)
    conn = sqlite3.connect(str(path))
    conn.execute(
        f"UPDATE results SET {assignments} WHERE key = ?",
        (*columns.values(), key),
    )
    conn.commit()
    conn.close()


class TestBasics:
    def test_roundtrip(self, store):
        store.put("a", {"x": 1})
        store.put("b", [1, 2, 3])
        assert store.get("a") == {"x": 1}
        assert store.get("b") == [1, 2, 3]
        assert store.get("missing") is None
        assert "a" in store and len(store) == 2

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "s.db"
        with CrashSafeStore(path) as s:
            s.put("k", {"v": 42})
        with CrashSafeStore(path) as again:
            assert again.get("k") == {"v": 42}

    def test_killed_mid_transaction_leaves_old_row(self, tmp_path):
        """A writer killed before its commit must not tear the store."""
        path = tmp_path / "s.db"
        with CrashSafeStore(path) as s:
            s.put("k", {"v": 1})
        script = (
            "import os, sqlite3, sys\n"
            "conn = sqlite3.connect(sys.argv[1])\n"
            "conn.execute(\"UPDATE results SET value = '{\\\"torn' "
            "WHERE key = 'k'\")\n"
            "os._exit(9)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(path)])
        assert proc.returncode == 9
        with CrashSafeStore(path) as s:
            assert s.get("k") == {"v": 1}
            assert s.quarantine_rows() == []


class TestCorruption:
    def test_unparseable_file_quarantined(self, tmp_path):
        path = tmp_path / "s.db"
        path.write_bytes(b"{ definitely not a database\x00\xff" * 64)
        with CrashSafeStore(path) as s:
            assert len(s) == 0
            assert s.quarantined_file is not None
            assert s.quarantined_file.name.startswith("s.db.corrupt-")
            assert b"not a database" in s.quarantined_file.read_bytes()
            # the original slot is free for a clean store
            s.put("k", 1)
        with CrashSafeStore(path) as s:
            assert s.get("k") == 1
            assert s.quarantined_file is None

    def test_quarantine_names_do_not_collide(self, tmp_path):
        path = tmp_path / "s.db"
        for n in range(3):
            path.write_text(f"broken {n}")
            with CrashSafeStore(path) as s:
                assert s.quarantined_file.name == f"s.db.corrupt-{n}"
        names = sorted(p.name for p in tmp_path.glob("s.db.corrupt-*"))
        assert names == ["s.db.corrupt-0", "s.db.corrupt-1", "s.db.corrupt-2"]

    def test_unknown_schema_quarantined(self, tmp_path):
        # a SQLite file whose results table has some other shape
        path = tmp_path / "s.db"
        conn = sqlite3.connect(str(path))
        conn.execute("CREATE TABLE results (key TEXT, payload BLOB)")
        conn.commit()
        conn.close()
        with CrashSafeStore(path) as s:
            assert len(s) == 0
            assert s.quarantined_file is not None
            s.put("k", 1)
            assert s.get("k") == 1

    def test_bad_entry_dropped_others_survive(self, tmp_path):
        path = tmp_path / "s.db"
        with CrashSafeStore(path) as s:
            s.put("good", {"v": 1})
            s.put("bad", {"v": 2})
        update_row(path, "bad", sum="deadbeef")
        with CrashSafeStore(path) as reopened:
            assert reopened.get("bad") is None
            assert reopened.get("good") == {"v": 1}
            assert reopened.quarantine_rows() == [("bad", "checksum mismatch")]
            # condemned rows leave the results table for good, and the
            # damaged bytes are kept in the quarantine table
            assert len(reopened) == 1
            assert reopened.scan() == {"good": {"v": 1}}
            kept = reopened._conn.execute(
                "SELECT value, sum FROM quarantine WHERE key = 'bad'"
            ).fetchone()
            assert kept == ('{"v":2}', "deadbeef")

    def test_flipped_value_byte_detected(self, tmp_path):
        path = tmp_path / "s.db"
        with CrashSafeStore(path) as s:
            s.put("k", {"misses": 100})
        update_row(path, "k", value='{"misses":999}')  # bit rot
        with CrashSafeStore(path) as s:
            assert s.get("k") is None
            assert s.quarantine_rows() == [("k", "checksum mismatch")]

    def test_strict_mode_raises(self, tmp_path):
        path = tmp_path / "s.db"
        path.write_bytes(b"garbage" * 1024)
        with pytest.raises(StoreCorruption):
            CrashSafeStore(path, strict=True)
        assert path.read_bytes() == b"garbage" * 1024  # left in place
