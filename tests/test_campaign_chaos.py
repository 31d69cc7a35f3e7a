"""Campaign chaos: coordinator kills mid-commit, resume to identical bytes.

The coordinator-kill fault fires *between* the durable tier commit and
the journal event — the most adversarial instant a crash can hit — so
these tests prove the commit-order invariant end to end: the tier is
the source of truth, the journal only an accelerator, and a resumed
campaign's ``results.json`` is byte-identical to a fault-free run with
zero committed items re-simulated.

The kill uses ``os._exit`` so it must run in a subprocess (via the
CLI, which doubles as CLI coverage for the chaos path).
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.engine.journal import read_journal

pytestmark = [pytest.mark.engine, pytest.mark.chaos]

ROOT = pathlib.Path(__file__).resolve().parent.parent
KILL_EXIT = 137

SPEC = {
    "name": "chaos",
    "benchmarks": ["dot", "jacobi"],
    "heuristics": ["pad", "original"],
    "caches": [{"size": "8K", "line": 32}],
    "seed": 1998,
    "policy": {"backoff_base_s": 0.0},
}


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


@pytest.fixture(scope="module")
def reference(spec_path, tmp_path_factory):
    """results.json bytes from a fault-free run of the same spec."""
    workdir = tmp_path_factory.mktemp("chaos-ref")
    run_cli("run", spec_path, workdir)
    return (workdir / "results.json").read_bytes()


def run_cli(action, spec_path, workdir, *extra, expect=0, timeout=180):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", action,
         str(spec_path), "--workdir", str(workdir), "--jobs", "2", *extra],
        env=env, cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        try:  # reap any orphaned workers with the group
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    assert proc.returncode == expect, (
        f"{action} exited {proc.returncode}, expected {expect}:\n{out}"
    )
    return out


def ckill(directory, after):
    """``--chaos`` arguments for a coordinator kill after N commits."""
    path = directory / f"ckill{after}.json"
    path.write_text(json.dumps({"campaign": {"ckill": after}}))
    return "--chaos", str(path)


def committed_items(workdir):
    return [
        row["item"] for row in read_journal(workdir / "journal.jsonl")
        if row.get("event") == "item_completed"
    ]


def leased_after_resume(workdir):
    leased, seen = [], False
    for row in read_journal(workdir / "journal.jsonl"):
        if row.get("event") == "campaign_resume":
            leased, seen = [], True
        elif row.get("event") == "item_leased" and seen:
            leased.append(row["item"])
    return leased


class TestCoordinatorKill:
    def test_ckill_dies_with_kill_exit_code(self, spec_path, tmp_path):
        run_cli("run", spec_path, tmp_path, *ckill(spec_path.parent, 1),
                expect=KILL_EXIT)
        # the kill fires between tier commit and journal emit, so the
        # journal may lag the tier by exactly the in-flight item
        assert len(committed_items(tmp_path)) <= 1
        assert not (tmp_path / "results.json").exists()

    def test_resume_completes_byte_identical(
        self, spec_path, tmp_path, reference
    ):
        run_cli("run", spec_path, tmp_path, *ckill(spec_path.parent, 2),
                expect=KILL_EXIT)
        durably_committed = committed_items(tmp_path)
        run_cli("resume", spec_path, tmp_path)
        assert (tmp_path / "results.json").read_bytes() == reference
        # zero re-simulation of journaled commits
        resimulated = set(leased_after_resume(tmp_path))
        assert not (set(durably_committed) & resimulated)

    def test_double_kill_then_resume(self, spec_path, tmp_path, reference):
        """Crash the original run AND the first resume; second finishes."""
        run_cli("run", spec_path, tmp_path, *ckill(spec_path.parent, 1),
                expect=KILL_EXIT)
        run_cli("resume", spec_path, tmp_path, *ckill(spec_path.parent, 1),
                expect=KILL_EXIT)
        run_cli("resume", spec_path, tmp_path)
        assert (tmp_path / "results.json").read_bytes() == reference


class TestExternalSigkill:
    def test_sigkill_mid_campaign_then_resume(
        self, spec_path, tmp_path, reference
    ):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run",
             str(spec_path), "--workdir", str(tmp_path), "--jobs", "2"],
            env=env, cwd=ROOT, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        journal = tmp_path / "journal.jsonl"
        deadline = time.monotonic() + 120
        try:
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    pytest.fail("campaign finished before the kill")
                if journal.exists() and committed_items(tmp_path):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("no commit within 120s")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        proc.wait(timeout=30)
        committed = committed_items(tmp_path)
        run_cli("resume", spec_path, tmp_path)
        assert (tmp_path / "results.json").read_bytes() == reference
        assert not (set(committed) & set(leased_after_resume(tmp_path)))
