"""Crash-safe persistent result store (SQLite, checksummed per row).

The one durable store for simulation results keyed by
:func:`~repro.experiments.runner.request_key`: ``run-all --cache-dir``,
:class:`~repro.experiments.runner.Runner` and campaigns all commit here.

Layout::

    results(key TEXT PRIMARY KEY, value TEXT, sum TEXT, created_ts REAL)
    quarantine(key TEXT, value TEXT, sum TEXT, reason TEXT, ts REAL)

``value`` is the canonical JSON of an engine ``pack_record`` payload;
``sum`` is :func:`checksum` of that value.  Guarantees:

* **Atomic commits** — every :meth:`CrashSafeStore.put` is one SQLite
  transaction, so a crash mid-write leaves the old row or the new one,
  never a torn one.  A committed row is the resume point: it is never
  re-simulated.
* **Per-row checksums** — a flipped byte condemns one row, not the
  sweep's worth of results.  Condemned rows move to the ``quarantine``
  table (forensics) and read as missing, so their work re-runs.
* **Whole-file quarantine** — a file that is not a database, or whose
  ``results`` table has a foreign shape, is renamed to
  ``<name>.corrupt-<n>`` with a logged warning and a fresh store starts.
* ``strict=True`` raises :class:`~repro.errors.StoreCorruption` instead
  of quarantining.

The store is protected by an internal lock: a campaign coordinator
thread owns the write side while serve status threads read progress.
"""

from __future__ import annotations

import json
import logging
import pathlib
import sqlite3
import threading
import time
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import StoreCorruption
from repro.obs import runtime as obs

log = logging.getLogger(__name__)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key        TEXT PRIMARY KEY,
    value      TEXT NOT NULL,
    sum        TEXT NOT NULL,
    created_ts REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    key    TEXT NOT NULL,
    value  TEXT,
    sum    TEXT,
    reason TEXT NOT NULL,
    ts     REAL NOT NULL
);
"""


def checksum(value: Any) -> str:
    """CRC32 (hex) of a value's canonical JSON encoding."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return format(zlib.crc32(blob) & 0xFFFFFFFF, "08x")


class CrashSafeStore:
    """Checksummed, durably-committed SQLite key/value result store."""

    def __init__(self, path, strict: bool = False):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.strict = strict
        #: where a whole corrupt database went, if that happened
        self.quarantined_file: Optional[pathlib.Path] = None
        self._lock = threading.Lock()
        self._conn = self._open()

    # -- connection / whole-file quarantine ---------------------------------

    def _open(self) -> sqlite3.Connection:
        try:
            return self._connect()
        except sqlite3.DatabaseError as exc:
            if self.strict:
                raise StoreCorruption(f"{self.path}: {exc}") from None
            dest = self._quarantine_path()
            try:
                self.path.rename(dest)
                self.quarantined_file = dest
            except OSError:  # pragma: no cover - racing deletes
                dest = None
            log.warning(
                "result store %s unreadable (%s); quarantined to %s and "
                "starting fresh", self.path, exc, dest,
            )
            obs.counter_add(
                "repro_campaign_tier_quarantined_total", 1,
                "disk-tier artifacts quarantined, by scope", scope="file",
            )
            return self._connect()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), check_same_thread=False)
        try:
            conn.executescript(_SCHEMA)
            conn.commit()
            # a cheap integrity probe: a truncated/overwritten file often
            # opens fine and only fails on first real read, and a foreign
            # ``results`` table fails here rather than on every lookup
            conn.execute(
                "SELECT key, value, sum, created_ts FROM results LIMIT 1"
            ).fetchone()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _quarantine_path(self) -> pathlib.Path:
        n = 0
        while True:
            candidate = self.path.with_name(f"{self.path.name}.corrupt-{n}")
            if not candidate.exists():
                return candidate
            n += 1

    # -- read side ----------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The stored value for ``key``; corrupt rows quarantine to None."""
        with self._lock:
            row = self._conn.execute(
                "SELECT value, sum FROM results WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                obs.counter_add(
                    "repro_campaign_tier_lookups_total", 1,
                    "disk-tier lookups, by outcome", outcome="miss",
                )
                return None
            value = self._decode(key, row[0], row[1])
            obs.counter_add(
                "repro_campaign_tier_lookups_total", 1,
                "disk-tier lookups, by outcome",
                outcome="hit" if value is not None else "quarantined",
            )
            return value

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]

    def scan(self) -> Dict[str, Any]:
        """Every valid (key, value); corrupt rows are quarantined en route.

        This is the resume recovery scan: its result set is exactly the
        work a campaign coordinator will *not* re-simulate.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, value, sum FROM results ORDER BY key"
            ).fetchall()
            good: Dict[str, Any] = {}
            for key, raw, digest in rows:
                value = self._decode(key, raw, digest)
                if value is not None:
                    good[key] = value
            return good

    def quarantine_rows(self) -> List[Tuple[str, str]]:
        """(key, reason) for every quarantined row, oldest first."""
        with self._lock:
            return [
                (key, reason)
                for key, reason in self._conn.execute(
                    "SELECT key, reason FROM quarantine ORDER BY ts, key"
                )
            ]

    # -- write side ----------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Durably commit one value (the resume commit point)."""
        blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO results (key, value, sum, created_ts) "
                "VALUES (?, ?, ?, ?)",
                (key, blob, checksum(value), time.time()),
            )
            self._conn.commit()

    def close(self) -> None:
        """Close the underlying connection (pending writes are committed)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "CrashSafeStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- row-level quarantine -------------------------------------------------

    def _decode(self, key: str, raw: str, digest: str) -> Optional[Any]:
        """Validate one row; bad rows move to the quarantine table.

        Caller holds the lock.
        """
        try:
            value = json.loads(raw)
        except ValueError:
            return self._condemn(key, raw, digest, "invalid JSON")
        if checksum(value) != digest:
            return self._condemn(key, raw, digest, "checksum mismatch")
        return value

    def _condemn(self, key: str, raw, digest, reason: str) -> None:
        if self.strict:
            raise StoreCorruption(f"{self.path}: row {key!r}: {reason}")
        self._conn.execute(
            "INSERT INTO quarantine (key, value, sum, reason, ts) "
            "VALUES (?, ?, ?, ?, ?)",
            (key, raw, digest, reason, time.time()),
        )
        self._conn.execute("DELETE FROM results WHERE key = ?", (key,))
        self._conn.commit()
        log.warning(
            "result store %s: quarantined row %s (%s)", self.path, key, reason
        )
        obs.counter_add(
            "repro_campaign_tier_quarantined_total", 1,
            "disk-tier artifacts quarantined, by scope", scope="row",
        )
        return None
