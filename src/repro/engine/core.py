"""Fault-tolerant parallel execution engine.

:class:`ExperimentEngine` runs many :class:`~repro.experiments.runner.RunRequest`
simulations across worker subprocesses with:

* **crash containment** — a worker segfault/OOM/exception marks that run
  and the sweep continues on a fresh worker;
* **per-run wall-clock timeouts** — hung workers are killed, not waited on;
* **bounded retries** with exponential backoff and deterministic jitter;
* **graceful degradation** — when the fast engines keep failing, one last
  attempt runs on the reference simulator and a success is tagged
  ``degraded``;
* **resumability** — completed runs found in the crash-safe store are
  returned as ``cached`` without re-simulation;
* **observability** — every attempt is journaled (see
  :mod:`repro.engine.journal`).

A sweep never raises out of :meth:`ExperimentEngine.run_many` because one
run misbehaved: every request comes back as a :class:`RunOutcome` whose
status is ``ok``, ``degraded``, ``cached``, ``rolled_back`` or ``failed``.

When :attr:`EngineConfig.guard` is set, workers run each transformation
under :mod:`repro.guard`; the verdict rides back with the result, is
re-journaled parent-side (``guard_violation`` / ``guard_rollback``
events) and a rollback becomes the ``rolled_back`` terminal status.  A
strict-mode violation fails the run on its first attempt: the engine
treats a strict verdict as final and neither retries it nor falls back
to the reference simulator, which would run the same guard again.

:meth:`ExperimentEngine.execute` is the one dispatch loop: ``run_many``
and the campaign coordinator (:mod:`repro.campaign.coordinator`) both
drive it, each with a *ledger* that writes down what the loop decides
in the caller's own journal vocabulary and durable store.
"""

from __future__ import annotations

import contextlib
import heapq
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List, Optional, Sequence

from repro.cache.stats import CacheStats
from repro.engine.faults import FaultPlan, choose_corruption, unit_interval
from repro.engine.journal import NullJournal
from repro.engine.pool import WorkerPool
from repro.engine.store import checksum
from repro.engine.worker import worker_main
from repro.guard.config import GuardConfig
from repro.obs import runtime as obs
from repro.experiments.runner import (
    RunRequest,
    pack_record,
    request_key,
    unpack_record,
)

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_FAILED = "failed"
STATUS_CACHED = "cached"
STATUS_ROLLED_BACK = "rolled_back"

#: the reference simulator is slower: its attempts get this many timeouts
FALLBACK_TIMEOUT_FACTOR = 4.0

#: why an attempt failed -> the error class its message is reported as
RELEASE_REASONS = {
    "error": "EngineError",
    "corrupt_payload": "WorkerCrashed",
    "crash": "WorkerCrashed",
    "timeout": "RunTimeout",
    "dispatch": "WorkerCrashed",
    "guard": "GuardViolationError",
}


@dataclass(frozen=True)
class EngineConfig:
    """Execution policy for a sweep."""

    jobs: int = 4
    timeout: float = 300.0  # per-attempt wall clock, seconds
    retries: int = 2  # extra attempts after the first, per simulator stage
    backoff_base: float = 0.25  # seconds; 0 disables waiting (tests)
    backoff_cap: float = 30.0
    fallback: bool = True  # degrade to the reference simulator
    seed: int = 0  # jitter seed
    faults: Optional[FaultPlan] = None
    guard: Optional[GuardConfig] = None  # transformation guardrail policy
    jit: str = "auto"  # trace-engine policy workers apply (repro.jit)
    tier: str = "sim"  # analytic tier-0 policy (repro.analysis.predict)


@dataclass
class RunOutcome:
    """Terminal state of one request."""

    request: RunRequest
    status: str
    stats: Optional[CacheStats] = None
    attempts: int = 0
    duration: float = 0.0  # wall clock across all attempts
    error: Optional[str] = None
    guard: Optional[dict] = None  # GuardReport record, when a guard ran
    tier: Optional[str] = None  # where the worker's answer came from
    # ("analytic"/"memory"/"sim"/... — None for failures and old workers)

    @property
    def key(self) -> str:
        return request_key(self.request)

    @property
    def guard_failed(self) -> bool:
        """True when a strict guard rejected this run's layout."""
        prefix = RELEASE_REASONS["guard"] + ":"
        return (
            self.status == STATUS_FAILED
            and (self.error or "").startswith(prefix)
        )


@dataclass
class Task:
    """One request on its way up the retry -> fallback -> fail ladder."""

    index: int
    request: RunRequest
    key: str
    item: object = None  # the caller's handle (a campaign WorkItem)
    simulator: str = "fast"
    attempts: int = 0  # attempts started in the current stage
    total_attempts: int = 0  # across stages (fault-plan and jitter index)
    started_at: float = 0.0
    total_time: float = 0.0
    enqueued_at: float = 0.0  # when it last became ready (queue-wait metric)
    fallback_used: bool = False
    last_error: Optional[str] = None


class _Worker:
    """One subprocess plus its pipe and current assignment."""

    def __init__(self, ctx, slot: int = 0):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=worker_main, args=(child,), daemon=True)
        self.proc.start()
        child.close()
        self.task: Optional[Task] = None
        self.deadline = float("inf")
        self.slot = slot  # stable identity across replacements

    def kill(self) -> None:
        try:
            self.proc.kill()
            self.proc.join(5)
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass

    def stop(self) -> None:
        """Polite shutdown for an idle worker."""
        try:
            self.conn.send(("stop",))
            self.proc.join(2)
        except (OSError, ValueError):
            pass
        if self.proc.is_alive():  # pragma: no cover - stubborn worker
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover
                pass


class ExperimentEngine:
    """Run simulation requests in parallel, surviving worker failure.

    ``pool`` is an optional :class:`~repro.engine.pool.WorkerPool`: with
    one, workers are leased warm for each sweep and released back alive
    when it finishes, so a long-lived caller (``repro serve``) pays the
    subprocess spawn cost once, not per micro-batch.  Without one, each
    sweep leases from a private pool that it closes when it ends.
    """

    def __init__(self, config: Optional[EngineConfig] = None, pool=None):
        self.config = config or EngineConfig()
        self.pool = pool

    # -- public API ---------------------------------------------------------

    def run_many(
        self,
        requests: Sequence[RunRequest],
        store=None,
        journal=None,
    ) -> List[RunOutcome]:
        """Execute every request; one outcome per input, in input order.

        ``store`` is a :class:`~repro.engine.store.CrashSafeStore` (or
        anything with get/put of packed records): hits short-circuit to
        ``cached`` outcomes and new results are committed as they finish,
        before their ``finish`` event is journaled, which is what makes a
        killed sweep resumable.  ``journal`` is a
        :class:`~repro.engine.journal.RunJournal`.
        """
        journal = journal or NullJournal()
        outcomes: Dict[str, RunOutcome] = {}
        tasks: List[Task] = []
        scheduled = set()
        for request in requests:
            key = request_key(request)
            if key in outcomes or key in scheduled:
                continue
            scheduled.add(key)
            cached = self._lookup(store, key)
            if cached is not None:
                stats, status = cached
                outcomes[key] = RunOutcome(request, STATUS_CACHED, stats)
                obs.counter_add(
                    "repro_engine_outcomes_total", 1,
                    "terminal run outcomes, by status", status=STATUS_CACHED,
                )
                journal.emit(
                    "finish", run=key, status=STATUS_CACHED,
                    stored_status=status, attempts=0, duration=0.0,
                )
            else:
                tasks.append(Task(index=len(tasks), request=request, key=key))
        if tasks:
            with obs.span("engine.execute", tasks=len(tasks)):
                self.execute(tasks, _SweepLedger(outcomes, store, journal))
        return [outcomes[request_key(r)] for r in requests]

    def execute(self, tasks: List[Task], ledger) -> None:
        """Drive every task to a terminal state on leased workers.

        The loop owns dispatch, lease deadlines, fault injection, payload
        validation, containment of crashes, torn messages, timeouts, dead
        workers and failed dispatches, and the retry -> fallback -> fail
        ladder.  ``ledger`` records what it decides, through six hooks:

        * ``leased(task, pid, injected)`` — an attempt went to a worker;
        * ``released(task, reason)`` — it failed; ``reason`` is a key of
          :data:`RELEASE_REASONS` and ``task.last_error`` says why;
        * ``retrying(task, delay)`` / ``degrading(task)`` — the ladder's
          next rung: the same simulator after ``delay`` seconds, or the
          reference simulator now;
        * ``failed(task)`` — the ladder is exhausted, or a strict guard
          rejected the layout, a verdict treated as final (terminal);
        * ``completed(task, status, stats, guard, tier)`` — a validated
          result (terminal); ``status`` is ``ok``, ``degraded`` or
          ``rolled_back``.
        """
        cfg = self.config
        guard = cfg.guard.to_record() if cfg.guard else None
        # Worker life cycle is context-managed: the pool's leased()
        # returns the (in-place mutated) worker list however the loop
        # ends — so replacements go back warm and an exception can never
        # leak leases — and a private pool is closed after that release,
        # stopping its idle workers.
        stack = contextlib.ExitStack()
        count = max(1, min(cfg.jobs, len(tasks)))
        pool = self.pool
        if pool is None:
            pool = stack.enter_context(WorkerPool(count))
        ctx = pool.ctx
        workers = stack.enter_context(pool.leased(count))
        now = time.monotonic()
        for task in tasks:
            task.enqueued_at = now
        ready: List[Task] = list(tasks)
        delayed: List = []  # heap of (ready_time, tiebreak, task)
        seq = 0
        remaining = len(tasks)

        def dispatch(worker: _Worker, task: Task) -> bool:
            task.attempts += 1
            task.total_attempts += 1
            timeout = cfg.timeout * (
                FALLBACK_TIMEOUT_FACTOR if task.simulator == "reference" else 1.0
            )
            injected, fault = _wire_fault(cfg.faults, task, timeout)
            task.started_at = time.monotonic()
            worker.task = task
            worker.deadline = task.started_at + timeout
            ledger.leased(task, worker.proc.pid, injected)
            try:
                worker.conn.send(
                    (
                        "task", task.index, task.request, task.simulator,
                        fault, obs.is_enabled(), guard, cfg.jit, cfg.tier,
                    )
                )
            except (BrokenPipeError, OSError):  # pragma: no cover - instant death
                return False
            return True

        def release(task: Task, reason: str, message: str) -> None:
            nonlocal seq, remaining
            now = time.monotonic()
            task.total_time += now - task.started_at
            task.last_error = f"{RELEASE_REASONS[reason]}: {message}"
            ledger.released(task, reason)
            seq += 1
            if reason == "guard":
                # A strict guard verdict is treated as final: a retry or
                # the reference fallback would run the same guard again.
                ledger.failed(task)
                remaining -= 1
            elif task.attempts <= cfg.retries:
                delay = backoff(cfg, task)
                ledger.retrying(task, delay)
                heapq.heappush(delayed, (now + delay, seq, task))
            elif cfg.fallback and not task.fallback_used:
                task.fallback_used = True
                task.simulator = "reference"
                task.attempts = 0
                ledger.degrading(task)
                heapq.heappush(delayed, (now, seq, task))
            else:
                ledger.failed(task)
                remaining -= 1

        def replace(worker: _Worker, reason: str, message: str) -> None:
            task = worker.task
            worker.kill()
            workers[workers.index(worker)] = _Worker(ctx, slot=worker.slot)
            release(task, reason, message)

        def died(worker: _Worker) -> str:
            return (
                f"worker pid {worker.proc.pid} died (exit code "
                f"{worker.proc.exitcode}) during {worker.task.key}"
            )

        def receive(worker: _Worker) -> None:
            nonlocal remaining
            task = worker.task
            try:
                msg = worker.conn.recv()
            except (EOFError, OSError):
                replace(worker, "crash", died(worker))
                return
            except Exception as exc:
                # A message arrived but cannot be decoded (torn pipe
                # write, scribbled memory): same containment as a crash.
                replace(
                    worker, "crash",
                    f"worker pid {worker.proc.pid} shipped an undecodable "
                    f"message during {task.key} "
                    f"({type(exc).__name__}: torn write?)",
                )
                return
            worker.task = None
            worker.deadline = float("inf")
            obs.counter_add(
                "repro_engine_worker_busy_seconds_total",
                max(0.0, time.monotonic() - task.started_at),
                "wall-clock seconds each worker slot spent on tasks",
                worker=str(worker.slot),
            )
            if msg[0] in ("error", "guard"):
                release(task, msg[0], str(msg[2]))
                return
            if len(msg) > 4 and msg[4] is not None:
                try:
                    obs.merge_snapshot(msg[4])
                except Exception:  # never fail a run over metrics
                    pass
            stats = validate_payload(msg[2], msg[3])
            if stats is None:
                release(task, "corrupt_payload", "result payload failed checksum")
                return
            task.total_time += time.monotonic() - task.started_at
            guard_record = msg[5] if len(msg) > 5 else None
            status = STATUS_DEGRADED if task.simulator == "reference" else STATUS_OK
            if guard_record and guard_record.get("status") == "rolled_back":
                status = STATUS_ROLLED_BACK
            tier = msg[6] if len(msg) > 6 else None
            ledger.completed(task, status, stats, guard_record, tier)
            remaining -= 1

        try:
            while remaining > 0:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    task = heapq.heappop(delayed)[2]
                    task.enqueued_at = now
                    ready.append(task)
                for worker in workers:
                    if worker.task is None and ready:
                        if not dispatch(worker, ready.pop(0)):
                            replace(
                                worker, "dispatch", "worker unreachable at dispatch"
                            )
                busy = {w.conn: w for w in workers if w.task is not None}
                if not busy:
                    if delayed:
                        time.sleep(
                            min(0.25, max(0.001, delayed[0][0] - time.monotonic()))
                        )
                        continue
                    break  # pragma: no cover - no work left but remaining>0
                horizon = min(w.deadline for w in busy.values())
                if delayed:
                    horizon = min(horizon, delayed[0][0])
                wait_for = min(0.5, max(0.005, horizon - time.monotonic()))
                for conn in _conn_wait(list(busy), timeout=wait_for):
                    receive(busy[conn])
                # Deadline and liveness sweep: a lease is only as live as
                # its worker process and its deadline.
                now = time.monotonic()
                for worker in list(workers):
                    task = worker.task
                    if task is None:
                        continue
                    if now >= worker.deadline:
                        budget = worker.deadline - task.started_at
                        replace(
                            worker, "timeout",
                            f"run {task.key} exceeded {budget:.1f}s; "
                            "worker killed",
                        )
                    elif not worker.proc.is_alive():
                        replace(worker, "crash", died(worker))
        finally:
            stack.close()

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _lookup(store, key: str):
        if store is None:
            return None
        record = store.get(key)
        if record is None:
            return None
        try:
            return unpack_record(record)
        except (TypeError, KeyError):
            return None  # malformed entry: re-run it


class _SweepLedger:
    """``run_many``'s record: engine journal, result store, outcomes."""

    def __init__(self, outcomes: Dict[str, RunOutcome], store, journal):
        self.outcomes = outcomes
        self.store = store
        self.journal = journal

    def leased(self, task: Task, pid: int, injected: Optional[str]) -> None:
        if obs.is_enabled():
            obs.counter_add(
                "repro_engine_attempts_total", 1,
                "task attempts dispatched to workers",
                simulator=task.simulator,
            )
            obs.observe(
                "repro_engine_queue_wait_seconds",
                max(0.0, task.started_at - task.enqueued_at),
                "time tasks sat ready before a worker picked them up",
            )
        self.journal.emit(
            "start", run=task.key, attempt=task.total_attempts,
            simulator=task.simulator, worker=pid,
            **({"injected": injected} if injected else {}),
        )

    def released(self, task: Task, reason: str) -> None:
        pass  # the retry/fallback/finish event carries the reason

    def retrying(self, task: Task, delay: float) -> None:
        obs.counter_add(
            "repro_engine_retries_total", 1,
            "attempts re-queued after a failure",
        )
        self.journal.emit(
            "retry", run=task.key, attempt=task.total_attempts,
            delay=round(delay, 3), reason=task.last_error,
        )

    def degrading(self, task: Task) -> None:
        obs.counter_add(
            "repro_engine_fallbacks_total", 1,
            "runs degraded to the reference simulator",
        )
        self.journal.emit(
            "fallback", run=task.key, simulator="reference",
            reason=task.last_error,
        )

    def failed(self, task: Task) -> None:
        self._finish(task, STATUS_FAILED, error=task.last_error)

    def completed(self, task: Task, status, stats, guard, tier) -> None:
        journal_guard(
            self.journal, guard, {"run": task.key},
            rollback_fields=("baseline_miss_pct", "padded_miss_pct"),
        )
        self._finish(task, status, stats, guard=guard, tier=tier)

    def _finish(
        self, task: Task, status: str, stats=None, error=None, guard=None,
        tier=None,
    ) -> None:
        # Commit order is the resume invariant, as in the campaign
        # ledger: the durable store first, the journal second.  A crash
        # (or a failed put) between the two never journals a finish the
        # store cannot back.
        if stats is not None and self.store is not None:
            self.store.put(task.key, pack_record(stats, status))
        duration = round(task.total_time, 6)
        self.outcomes[task.key] = RunOutcome(
            task.request, status, stats, attempts=task.total_attempts,
            duration=duration, error=error, guard=guard, tier=tier,
        )
        self.journal.emit(
            "finish", run=task.key, status=status,
            attempts=task.total_attempts, duration=duration,
            **({"error": error} if error else {}),
            **({"tier": tier} if tier else {}),
        )
        obs.counter_add(
            "repro_engine_outcomes_total", 1,
            "terminal run outcomes, by status", status=status,
        )


def journal_guard(journal, guard, ids: dict, rollback_fields=()) -> None:
    """Persist a worker's guard verdict so it survives a crash.

    Violations and a rollback become their own journal events, tagged
    with ``ids`` (the worker's in-process guard sinks die with the
    worker, so the parent re-emits from the verdict record it shipped
    back).  The worker already counted them in the metrics snapshot the
    parent merged, so nothing is counted here.
    """
    if not guard:
        return
    for violation in guard.get("violations", ()):
        journal.emit("guard_violation", **ids, **violation)
    if guard.get("status") == "rolled_back":
        journal.emit(
            "guard_rollback", **ids,
            **{name: guard.get(name) for name in rollback_fields},
        )


def backoff(config: EngineConfig, task: Task) -> float:
    """Delay before re-leasing ``task``: exponential, capped, jittered.

    The jitter is a pure function of (seed, key, attempt), so retries are
    deterministic per task yet spread across tasks.
    """
    if config.backoff_base <= 0:
        return 0.0
    raw = min(config.backoff_cap, config.backoff_base * 2 ** (task.attempts - 1))
    return raw * (0.5 + unit_interval(config.seed, task.key, task.total_attempts))


def _wire_fault(faults, task: Task, timeout: float):
    """The fault (if any) injected into this attempt, and its wire tuple."""
    injected = faults.decide(task.key, task.total_attempts) if faults else None
    if injected == "timeout":  # hang well past the deadline
        return injected, ("timeout", timeout * 3 + 1.0)
    if injected == "layout":
        corruption = choose_corruption(faults.seed, task.key, task.total_attempts)
        return injected, ("layout", corruption)
    if injected == "slow":
        return injected, ("slow", faults.slow_s)
    return injected, ((injected, None) if injected else None)


def validate_payload(payload, digest) -> Optional[CacheStats]:
    """Rebuild stats from a worker payload iff it matches its checksum.

    A worker whose memory was scribbled on (or an injected ``corrupt``
    fault) produces a payload that no longer matches the digest computed
    before shipping, and must be retried, never stored.
    """
    if not isinstance(payload, dict) or checksum(payload) != digest:
        return None
    try:
        stats = CacheStats(**payload)
    except TypeError:
        return None
    if stats.accesses < 0 or stats.misses < 0 or stats.misses > stats.accesses:
        return None
    return stats
