"""Fault-tolerant experiment execution engine.

Submodules:

* :mod:`repro.engine.core`    — parallel executor (timeouts, retries,
  crash containment, graceful degradation);
* :mod:`repro.engine.store`   — the one crash-safe SQLite result store
  (``run-all --cache-dir``, the Runner and campaigns);
* :mod:`repro.engine.journal` — structured JSONL run journal;
* :mod:`repro.engine.faults`  — deterministic fault injection;
* :mod:`repro.engine.pool`    — long-lived warm worker pool (``repro serve``);
* :mod:`repro.engine.plan`    — figure planning / the ``run-all`` pipeline.

``core`` and ``plan`` are loaded lazily because they import the experiment
runner and with it the whole simulation stack.
"""

from repro.engine.faults import FaultPlan, InjectedFault
from repro.engine.journal import NullJournal, RunJournal, read_journal
from repro.engine.store import CrashSafeStore, checksum

_LAZY = {
    "EngineConfig": "repro.engine.core",
    "ExperimentEngine": "repro.engine.core",
    "RunOutcome": "repro.engine.core",
    "WorkerPool": "repro.engine.pool",
    "PlanningRunner": "repro.engine.plan",
    "PrimedRunner": "repro.engine.plan",
    "SweepReport": "repro.engine.plan",
    "collect_requests": "repro.engine.plan",
    "run_figures": "repro.engine.plan",
    "DEFAULT_FIGURES": "repro.engine.plan",
}

__all__ = [
    "CrashSafeStore", "FaultPlan", "InjectedFault", "NullJournal",
    "RunJournal", "checksum", "read_journal",
    *sorted(_LAZY),
]


def __getattr__(name):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
