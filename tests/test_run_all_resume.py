"""``run-all --cache-dir`` resume through the CLI.

A second run over the same cache directory must answer every run from
``<cache-dir>/runner_cache.db`` (``cached``) and dispatch nothing to a
worker, so the journal gains no ``start`` event.
"""

import json

import pytest

from repro import cli
from repro.cache.stats import CacheStats
from repro.engine.journal import read_journal
from repro.engine.plan import collect_requests
from repro.engine.store import checksum
from repro.experiments.runner import pack_record, request_key

pytestmark = [pytest.mark.engine]

ARGS = ["run-all", "--figures", "fig9", "--programs", "dot", "--jobs", "2"]


def run_all(cache_dir, capsys):
    rc = cli.main([*ARGS, "--cache-dir", str(cache_dir)])
    return rc, capsys.readouterr().out


def summary(out):
    return next(line for line in out.splitlines() if line.startswith("run-all:"))


class TestCacheDirResume:
    def test_second_run_is_all_cached(self, tmp_path, capsys):
        rc, first = run_all(tmp_path, capsys)
        assert rc == 0
        assert "cached" not in summary(first)
        assert (tmp_path / "runner_cache.db").exists()
        journal = tmp_path / "journal.jsonl"
        seen = len(read_journal(journal))

        rc, second = run_all(tmp_path, capsys)
        assert rc == 0
        line = summary(second)
        runs = int(line.split()[1])
        assert f"({runs} cached)" in line
        # byte-identical figure text from the store
        assert second.split("run-all:")[0] == first.split("run-all:")[0]
        resumed = read_journal(journal)[seen:]
        assert resumed  # the resume journaled its cached finishes
        assert not [e for e in resumed if e["event"] == "start"]
        assert {e["status"] for e in resumed if e["event"] == "finish"} == {
            "cached"
        }

    def test_old_json_store_is_not_read(self, tmp_path, capsys):
        # a schema-2 JSON store from before the SQLite one, holding a
        # valid entry for every run: it is left alone and the runs
        # simulate once
        record = pack_record(CacheStats(accesses=1, misses=1))
        entries = {
            request_key(request): {"value": record, "sum": checksum(record)}
            for request in collect_requests(["fig9"], programs=["dot"])
        }
        legacy = tmp_path / "runner_cache.json"
        legacy.write_text(json.dumps({"schema": 2, "entries": entries}))
        before = legacy.read_bytes()
        rc, out = run_all(tmp_path, capsys)
        assert rc == 0
        assert "cached" not in summary(out)
        assert legacy.read_bytes() == before
