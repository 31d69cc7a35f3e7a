"""Admission control and micro-batching for the analysis service.

:class:`AnalysisService` is the execution half of ``repro serve`` — the
HTTP layer parses and validates, then calls :meth:`AnalysisService.submit`
and waits.  Inside:

* a **bounded admission queue** (``queue_depth``) guards every endpoint;
  when it is full, :class:`~repro.errors.QueueFullError` propagates out
  as HTTP 429 — the service sheds load instead of queueing unboundedly
  or crashing;
* **memo first**: a request that passes admission is looked up in the
  memo tiers on the submitting thread — the shared
  :class:`~repro.experiments.runner.Runner` memo for benchmark simulate
  and ``/v1/run`` (every resolved run must hit), the per-source memo for
  inline-source simulate.  A hit is answered right there and never
  enters a queue; only misses wait for a worker or the batch window.
  The service counts one ``repro_runner_memo_hits_total`` or
  ``repro_runner_memo_misses_total`` per run it looks up; the queues
  re-check misses without counting them again (an engine worker that
  simulates a miss still reports its own private memo's lookup);
* ``workers`` threads execute the in-process endpoints (pad, lint,
  inline-source simulate) — each job re-checks its deadline before it
  starts, so a request that rotted in the queue fails fast as a timeout
  instead of burning a worker on an answer nobody is waiting for;
* a single **micro-batcher** thread coalesces engine-bound misses
  (benchmark simulate, ``/v1/run`` sweeps) that arrive within
  ``batch_window_s`` into one dispatch through the shared
  :class:`~repro.engine.pool.WorkerPool` — warm subprocesses, one
  :meth:`~repro.engine.core.ExperimentEngine.run_many` per batch — and
  primes the runner memo with every result, so the repeat is a hit.

Above the queue sits the **admission ladder** (see
``docs/RESILIENCE.md``): endpoints carry priority classes, and as
occupancy climbs past ``brownout_fraction`` of ``queue_depth``,
simulate-class misses are answered degraded (the analytic tier when
the predictor can answer exactly, else the static conflict estimator
with ``degraded: true`` and an ``error_bound_pct``); past
``shed_fraction``, bulk ``/v1/run`` work is shed with 429 while
interactive pad/lint stays full fidelity.  The 429 checks run before
the memo lookup, the degrade decision after it, so an exact answer the
memo holds always beats an estimate.  The same degraded path engages
under forced ``--brownout``, when the engine's
:class:`~repro.engine.pool.WorkerPool` — whose heartbeat thread this
service starts, adding wedge detection and bounded respawn to its
per-slot circuit breakers — reports unhealthy, or when a fully
quarantined pool refuses a lease mid-dispatch.
``repro_serve_degraded_total`` counts only answers that actually carry
an estimate.  Per-request deadlines propagate into each engine dispatch
as a tightened engine timeout.

Threads: the runner's memo is read on the HTTP handler threads and
written by the batcher, so one lock guards every runner memo lookup and
prime (the batcher does not hold it during ``run_many``); the engine
pool is leased only by the batcher thread, and its own lock keeps its
heartbeat thread and the health probes out of the way; the per-source
simulate memo has its own lock.  Client timeouts abandon the job (the
waiter gets :class:`~repro.errors.RunTimeout` → HTTP 504); an abandoned
job still in the queue is skipped, one already dispatched to the engine
finishes and warms the memo for the retry.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import QueueFullError, ReproError, RunTimeout
from repro.obs import runtime as obs
from repro.serve import handlers
from repro.serve.schemas import RunBatchRequest, SimulateRequest


@dataclass
class ServeConfig:
    """Everything ``repro serve`` decides at startup."""

    host: str = "127.0.0.1"
    port: int = 8077
    workers: int = 4               # in-process handler threads
    queue_depth: int = 64          # bounded admission queue (429 past this)
    timeout_s: float = 30.0        # default per-request deadline
    batch_window_s: float = 0.02   # micro-batch coalescing window
    max_batch: int = 32            # jobs coalesced per engine dispatch
    max_body_bytes: int = 1 << 20  # request bodies past this get 413
    engine_jobs: int = 4           # warm engine worker subprocesses
    engine_retries: int = 1
    guard: object = None           # Optional[GuardConfig]
    jit: str = "auto"              # trace-engine policy (repro.jit)
    campaign_dir: Optional[str] = None  # enables /v1/campaign when set
    campaign_jobs: int = 2         # worker subprocesses per campaign
    campaign_backlog: int = 4      # queued campaigns before 409
    brownout: bool = False         # force degraded simulate answers
    heartbeat_s: float = 0.5       # engine pool heartbeat interval
    # admission ladder: fractions of queue_depth where degradation starts
    brownout_fraction: float = 0.75  # simulate-class answers degrade
    shed_fraction: float = 0.9       # bulk (priority 3) requests get 429
    chaos: object = None           # Optional[repro.chaos.ChaosSchedule]


class _Job:
    """One admitted request waiting for its result."""

    __slots__ = (
        "endpoint", "request", "deadline", "enqueued_at",
        "done", "result", "error", "abandoned", "degrade", "runs",
    )

    def __init__(self, endpoint: str, request, deadline: float):
        self.endpoint = endpoint
        self.request = request
        self.deadline = deadline
        self.enqueued_at = time.monotonic()
        self.done = threading.Event()
        self.result: Optional[dict] = None
        self.error: Optional[BaseException] = None
        self.abandoned = False
        self.degrade = False  # admission ladder: answer without the engine
        self.runs: list = []  # resolved RunRequests of an engine-bound job

    def finish(self, result: Optional[dict] = None,
               error: Optional[BaseException] = None) -> None:
        self.result = result
        self.error = error
        self.done.set()


#: endpoints executed on worker threads (everything else micro-batches)
_IN_PROCESS = ("pad", "lint", "simulate-source", "optimize")

#: admission ladder priority classes: 1 = interactive (never shed before
#: the queue is literally full), 2 = batch (degrades under brownout),
#: 3 = bulk (first to shed under saturation)
_PRIORITY = {
    "pad": 1,
    "lint": 1,
    "simulate-source": 1,
    "simulate-program": 2,
    "optimize": 2,
    "run": 3,
}

#: endpoints with a degraded (estimator-backed) answer available
_DEGRADABLE = ("simulate-source", "simulate-program", "run", "optimize")


class AnalysisService:
    """Bounded-queue, micro-batching executor behind the HTTP layer."""

    def __init__(self, config: Optional[ServeConfig] = None):
        from repro.experiments.runner import Runner

        self.config = config or ServeConfig()
        self.runner = Runner()
        self._pool = None
        self._engine = None
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._exec_queue: deque = deque()
        self._batch_queue: deque = deque()
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._started = False
        # guards every runner memo lookup and prime: handler threads
        # read the memo in submit, the batcher reads and primes it
        self._runner_lock = threading.Lock()
        self._source_memo: Dict[Tuple, dict] = {}
        self._source_lock = threading.Lock()
        self.started_at = time.time()
        #: CampaignManager when config.campaign_dir is set, else None
        self.campaigns = None

    # -- life cycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn worker threads, the batcher, and warm the engine pool."""
        if self._started:
            return
        from repro.engine.core import EngineConfig, ExperimentEngine
        from repro.engine.pool import WorkerPool

        cfg = self.config
        chaos = cfg.chaos
        faults = None
        if chaos is not None:
            faults = chaos.engine_plan()
            if chaos.serve.clock_skew_s:
                from repro.chaos import clock

                clock.set_skew(chaos.serve.clock_skew_s)
        self._pool = WorkerPool(
            jobs=cfg.engine_jobs, heartbeat_s=cfg.heartbeat_s
        )
        self._pool.warm()
        self._pool.start()
        self._engine = ExperimentEngine(
            EngineConfig(
                jobs=cfg.engine_jobs,
                timeout=cfg.timeout_s,
                retries=cfg.engine_retries,
                backoff_base=0.05,
                faults=faults,
                guard=cfg.guard,
                jit=cfg.jit,
            ),
            pool=self._pool,
        )
        self._started = True
        self._stopping.clear()
        for index in range(max(1, cfg.workers)):
            thread = threading.Thread(
                target=self._exec_loop, name=f"serve-exec-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        batcher = threading.Thread(
            target=self._batch_loop, name="serve-batch", daemon=True
        )
        batcher.start()
        self._threads.append(batcher)
        if cfg.campaign_dir:
            from repro.serve.campaigns import CampaignManager

            self.campaigns = CampaignManager(
                cfg.campaign_dir,
                jobs=cfg.campaign_jobs,
                max_queued=cfg.campaign_backlog,
            )
            self.campaigns.start()

    def stop(self) -> None:
        """Drain nothing: fail queued jobs fast and stop every thread."""
        if not self._started:
            return
        self._stopping.set()
        with self._work:
            for job in list(self._exec_queue) + list(self._batch_queue):
                job.finish(error=ReproError("service shutting down"))
            self._exec_queue.clear()
            self._batch_queue.clear()
            self._work.notify_all()
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()
        if self.campaigns is not None:
            self.campaigns.stop()
            self.campaigns = None
        if self._pool is not None:
            self._pool.close()
        if self.config.chaos is not None and getattr(
            self.config.chaos.serve, "clock_skew_s", 0.0
        ):
            from repro.chaos import clock

            clock.clear()
        self._started = False

    # -- submission (HTTP handler threads) ----------------------------------

    def submit(self, endpoint: str, request) -> dict:
        """Admit one validated request and answer it.

        Memo hits are answered on the calling thread; misses are queued
        and waited for.  Raises :class:`QueueFullError` when the
        admission queue is at ``queue_depth`` or bulk work is shed
        (429), :class:`RunTimeout` when the deadline passes first (504),
        or whatever library error the handler hit.
        """
        if not self._started:
            raise ReproError("analysis service is not running")
        timeout = getattr(request, "timeout_s", None) or self.config.timeout_s
        job = _Job(endpoint, request, time.monotonic() + timeout)
        with self._work:
            self._admit(endpoint)
        hit = self._memo_answer(job)
        if hit is not None:
            return hit
        with self._work:
            # the queue may have filled while the memo was consulted
            rung = self._admit(endpoint)
            job.degrade = endpoint in _DEGRADABLE and (
                rung >= 1 or self._brownout()
            )
            if endpoint in _IN_PROCESS:
                self._exec_queue.append(job)
            else:
                self._batch_queue.append(job)
            self._gauge_depth()
            self._work.notify_all()
        if not job.done.wait(timeout):
            job.abandoned = True
            obs.counter_add(
                "repro_serve_rejections_total", 1,
                "requests shed by the service, by reason", reason="timeout",
            )
            raise RunTimeout(
                f"{endpoint}: no result within {timeout:.1f}s "
                "(the request was abandoned)"
            )
        if job.error is not None:
            raise job.error
        return job.result

    # -- health -------------------------------------------------------------

    def health(self) -> dict:
        """Liveness and queue occupancy for ``GET /healthz``."""
        with self._lock:
            queued = len(self._exec_queue) + len(self._batch_queue)
        return {
            "status": "ok" if self._started else "stopped",
            "uptime_s": round(time.time() - self.started_at, 3),
            "queued": queued,
            "queue_depth": self.config.queue_depth,
            "workers": self.config.workers,
            "engine_workers": (
                self._pool.idle_count + self._pool.leased_count
                if self._pool is not None
                else 0
            ),
        }

    def readiness(self) -> dict:
        """Readiness for ``GET /readyz``: can this instance take work *now*?

        Liveness (``/livez``) is "the process is up"; readiness is
        stricter — a started service whose admission queue is full, or
        whose engine pool has no capacity left, reports ``ready: false``
        so a load balancer routes around it until it drains.  Each
        component reports its own saturation alongside the verdict.
        """
        with self._lock:
            queued = len(self._exec_queue) + len(self._batch_queue)
        queued += self._phantom_depth()
        queue_full = queued >= self.config.queue_depth
        pool = self._pool
        pool_component = {
            "capacity": pool.jobs if pool is not None else 0,
            "idle": pool.idle_count if pool is not None else 0,
            "leased": pool.leased_count if pool is not None else 0,
            "available": (
                pool is not None
                and not pool.closed
                and pool.idle_count + (pool.jobs - pool.leased_count) > 0
            ),
        }
        resilience = (
            pool.health() if pool is not None else {"supervised": False}
        )
        brownout = self._started and (
            self._brownout() or self._ladder_rung(queued) >= 1
        )
        campaigns = (
            self.campaigns.readiness()
            if self.campaigns is not None
            else {"enabled": False}
        )
        disk_tier = {"enabled": bool(self.config.campaign_dir)}
        if self.config.campaign_dir:
            import os

            disk_tier["writable"] = os.access(
                self.config.campaign_dir, os.W_OK
            ) if os.path.isdir(self.config.campaign_dir) else os.access(
                os.path.dirname(os.path.abspath(self.config.campaign_dir))
                or ".", os.W_OK,
            )
        ready = (
            self._started
            and not queue_full
            and not campaigns.get("saturated", False)
            and disk_tier.get("writable", True)
        )
        if ready and brownout:
            # degraded, not unready: the instance still answers — load
            # balancers should keep routing, clients see degraded: true
            status = "degraded"
        else:
            status = "ready" if ready else (
                "saturated" if self._started else "stopped"
            )
        return {
            "ready": ready,
            "status": status,
            "brownout": brownout,
            "queue": {
                "depth": queued,
                "limit": self.config.queue_depth,
                "full": queue_full,
            },
            "pool": pool_component,
            "resilience": resilience,
            "campaigns": campaigns,
            "disk_tier": disk_tier,
        }

    # -- admission ladder ----------------------------------------------------

    def _admit(self, endpoint: str) -> int:
        """The ladder rung for one request, or 429 (``_work`` held)."""
        depth = len(self._exec_queue) + len(self._batch_queue)
        depth += self._phantom_depth()
        if depth >= self.config.queue_depth:
            obs.counter_add(
                "repro_serve_rejections_total", 1,
                "requests shed by the service, by reason",
                reason="queue_full",
            )
            raise QueueFullError(
                f"admission queue full ({self.config.queue_depth} "
                "waiting); retry with backoff"
            )
        rung = self._ladder_rung(depth)
        priority = _PRIORITY.get(endpoint, 2)
        if rung >= 2 and priority >= 3:
            # saturation: shed bulk work first so interactive
            # requests keep their latency
            obs.counter_add(
                "repro_serve_rejections_total", 1,
                "requests shed by the service, by reason",
                reason="shed_bulk",
            )
            raise QueueFullError(
                f"shedding {endpoint!r} (priority {priority}) under "
                "saturation; retry with backoff"
            )
        return rung

    def _phantom_depth(self) -> int:
        """Extra queue depth injected by a chaos ``queue_flood`` fault."""
        chaos = self.config.chaos
        return chaos.serve.queue_flood if chaos is not None else 0

    def _ladder_rung(self, depth: int) -> int:
        """0 = normal, 1 = brownout (degrade), 2 = saturation (shed bulk)."""
        limit = self.config.queue_depth
        if depth >= limit * self.config.shed_fraction:
            return 2
        if depth >= limit * self.config.brownout_fraction:
            return 1
        return 0

    def _brownout(self) -> bool:
        """Forced by config, or the engine pool is too sick to simulate."""
        if self.config.brownout:
            return True
        return self._pool is not None and not self._pool.healthy

    # -- internals ----------------------------------------------------------

    def _gauge_depth(self) -> None:
        obs.gauge_set(
            "repro_serve_queue_depth", len(self._exec_queue),
            "requests waiting for admission, by queue", queue="exec",
        )
        obs.gauge_set(
            "repro_serve_queue_depth", len(self._batch_queue),
            "requests waiting for admission, by queue", queue="batch",
        )

    def _pop(self, queue: deque) -> Optional[_Job]:
        """One non-abandoned job, or None once the service is stopping."""
        with self._work:
            while not self._stopping.is_set():
                while queue:
                    job = queue.popleft()
                    self._gauge_depth()
                    if not job.abandoned:
                        return job
                self._work.wait(timeout=0.1)
        return None

    def _exec_loop(self) -> None:
        while True:
            job = self._pop(self._exec_queue)
            if job is None:
                return
            if time.monotonic() > job.deadline:
                job.finish(error=RunTimeout(
                    f"{job.endpoint}: deadline passed while queued"
                ))
                continue
            obs.observe(
                "repro_serve_queue_wait_seconds",
                time.monotonic() - job.enqueued_at,
                "time requests sat in the admission queue",
            )
            try:
                result = self._execute(job)
            except BaseException as exc:  # structured error at the boundary
                job.finish(error=exc)
                continue
            _count_if_degraded(job.endpoint, result)
            job.finish(result=result)

    def _execute(self, job: _Job) -> dict:
        if job.endpoint == "pad":
            return handlers.handle_pad(job.request)
        if job.endpoint == "lint":
            return handlers.handle_lint(job.request)
        if job.endpoint == "optimize":
            # degraded answer = the greedy incumbent, no search
            return handlers.handle_optimize(job.request,
                                            degrade=job.degrade)
        if job.endpoint == "simulate-source":
            return self._simulate_source(job.request, degrade=job.degrade)
        raise ReproError(f"unroutable endpoint {job.endpoint!r}")

    def _simulate_source(self, request: SimulateRequest,
                         degrade: bool = False) -> dict:
        """Exact (or, under brownout, estimated) inline-source answer.

        ``submit`` already counted this request's memo miss; a twin
        request may have filled the memo since, so look again uncounted.
        """
        key = _source_key(request)
        with self._source_lock:
            hit = self._source_memo.get(key)
        if hit is not None:
            return hit
        if degrade:
            from repro.resilience.degrade import degraded_simulate_source

            return degraded_simulate_source(request)
        result = handlers.handle_simulate_source(request)
        with self._source_lock:
            self._source_memo[key] = result
        return result

    def _memo_answer(self, job: _Job) -> Optional[dict]:
        """The answer the memo tiers already hold for ``job``, else None.

        Runs on the submitting thread and counts one memo hit or miss
        per distinct lookup.  Engine-bound jobs keep their resolved runs
        for the batcher; they are answered only when every run hits.
        """
        from repro.experiments.runner import request_key

        if job.endpoint == "simulate-source":
            with self._source_lock:
                hit = self._source_memo.get(_source_key(job.request))
            if hit is not None:
                obs.counter_add(
                    "repro_runner_memo_hits_total", 1,
                    "simulation results served from memory", tier="serve",
                )
            else:
                obs.counter_add(
                    "repro_runner_memo_misses_total", 1,
                    "simulation requests that had to run",
                )
            return hit
        if job.endpoint in _IN_PROCESS:
            return None
        job.runs = self._requests_for(job)
        memo: Dict[str, object] = {}
        with self._runner_lock:
            for run in job.runs:
                key = request_key(run)
                if key not in memo:
                    memo[key] = self.runner.memo_lookup(run)
        if any(stats is None for stats in memo.values()):
            return None
        return self._assemble(job, job.runs, memo, {})

    # -- micro-batching -----------------------------------------------------

    def _batch_loop(self) -> None:
        while True:
            first = self._pop(self._batch_queue)
            if first is None:
                return
            jobs = [first]
            horizon = time.monotonic() + self.config.batch_window_s
            with self._work:
                while (
                    len(jobs) < self.config.max_batch
                    and not self._stopping.is_set()
                ):
                    while self._batch_queue and len(jobs) < self.config.max_batch:
                        job = self._batch_queue.popleft()
                        self._gauge_depth()
                        if not job.abandoned:
                            jobs.append(job)
                    remaining = horizon - time.monotonic()
                    if remaining <= 0 or len(jobs) >= self.config.max_batch:
                        break
                    self._work.wait(timeout=remaining)
            self._dispatch_batch(jobs)

    def _dispatch_batch(self, jobs: List[_Job]) -> None:
        """Serve one coalesced batch of memo misses through the engine."""
        from repro.experiments.runner import request_key

        obs.counter_add(
            "repro_serve_batches_total", 1, "micro-batches dispatched"
        )
        obs.observe(
            "repro_serve_batch_jobs", len(jobs),
            "requests coalesced per micro-batch",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        plans = [(job, job.runs) for job in jobs]  # in arrival order
        for job, runs in plans:
            if job.degrade:
                self._finish_degraded(job, runs)
        plans = [plan for plan in plans if not plan[0].degrade]
        memo: Dict[str, object] = {}
        missing: Dict[str, object] = {}
        with self._runner_lock:
            for _job, runs in plans:
                for run in runs:
                    key = request_key(run)
                    if key in memo or key in missing:
                        continue
                    # submit counted this lookup; a batch that finished
                    # since may have primed the answer
                    stats = self.runner.memo_lookup(run, count=False)
                    if stats is not None:
                        memo[key] = stats
                    else:
                        missing[key] = run
        outcomes: Dict[str, object] = {}
        if missing:
            try:
                results = self._batch_engine(plans).run_many(
                    list(missing.values())
                )
            except BaseException as exc:
                # A quarantined pool (every breaker open) still has a
                # degraded answer; anything else fails the batch.
                from repro.errors import EngineError

                for job, runs in plans:
                    if job.done.is_set() or job.abandoned:
                        continue
                    if isinstance(exc, EngineError):
                        self._finish_degraded(job, runs)
                    else:
                        job.finish(error=exc)
                return
            with self._runner_lock:
                for outcome in results:
                    outcomes[outcome.key] = outcome
                    if outcome.stats is not None:
                        self.runner.prime(outcome.request, outcome.stats)
        for job, runs in plans:
            if job.done.is_set() or job.abandoned:
                continue
            try:
                job.finish(result=self._assemble(job, runs, memo, outcomes))
            except BaseException as exc:
                job.finish(error=exc)

    def _batch_engine(self, plans):
        """The engine for one dispatch, deadline-clamped to its jobs.

        The tightest live deadline in the batch propagates into the
        worker timeout, so a request admitted with two seconds left
        cannot pin a worker for the full configured budget after its
        waiter has already given up.
        """
        import dataclasses as _dc

        deadlines = [
            job.deadline for job, _ in plans
            if not (job.done.is_set() or job.abandoned)
        ]
        if not deadlines:
            return self._engine
        remaining = min(deadlines) - time.monotonic()
        base = self._engine.config
        if remaining >= base.timeout:
            return self._engine
        from repro.engine.core import ExperimentEngine

        return ExperimentEngine(
            _dc.replace(base, timeout=max(0.1, remaining)), pool=self._pool
        )

    def _finish_degraded(self, job: _Job, runs) -> None:
        """Answer one browned-out engine job without the engine.

        Each run is answered by the memo (a run primed since submit), the
        analytic tier, or the estimator, in that order.  The lock is held
        throughout because the analytic tier primes the memo.
        """
        from repro.resilience.degrade import degraded_run_record

        try:
            with self._runner_lock:
                records = [
                    degraded_run_record(
                        run,
                        cached_stats=self.runner.memo_lookup(run, count=False),
                        runner=self.runner,
                    )
                    for run in runs
                ]
            body = self._shape(job, records, degraded=True)
        except BaseException as exc:
            job.finish(error=exc)
            return
        _count_if_degraded(job.endpoint, body)
        job.finish(result=body)

    def _requests_for(self, job: _Job) -> list:
        """Resolve one engine-bound job to its RunRequests."""
        if job.endpoint == "simulate-program":
            request: SimulateRequest = job.request
            return [
                self.runner.request_for(
                    request.program, request.heuristic, request.cache,
                    size=request.size, m_lines=request.m_lines,
                )
            ]
        if job.endpoint == "run":
            batch: RunBatchRequest = job.request
            return [
                self.runner.request_for(
                    item["program"], item["heuristic"], batch.cache,
                    size=item["size"], m_lines=item["m_lines"],
                )
                for item in batch.items
            ]
        raise ReproError(f"unbatchable endpoint {job.endpoint!r}")

    def _assemble(self, job: _Job, requests, memo, outcomes) -> dict:
        from repro.experiments.runner import request_key

        records = []
        for request in requests:
            key = request_key(request)
            if key in memo:
                records.append(
                    {
                        "program": request.program,
                        "heuristic": request.heuristic,
                        "size": request.size,
                        "status": "cached",
                        "attempts": 0,
                        "stats": handlers.stats_record(memo[key]),
                    }
                )
            elif key in outcomes:
                records.append(handlers.outcome_record(outcomes[key]))
            else:  # pragma: no cover - engine returns one outcome per input
                records.append(
                    {
                        "program": request.program,
                        "heuristic": request.heuristic,
                        "size": request.size,
                        "status": "failed",
                        "attempts": 0,
                        "stats": None,
                        "error": "no outcome produced",
                    }
                )
        return self._shape(job, records)

    @staticmethod
    def _shape(job: _Job, records, **extra) -> dict:
        """One simulate record (with its cache), or a ``/v1/run`` body."""
        if job.endpoint == "simulate-program":
            record = dict(records[0])
            record["cache"] = job.request.cache.describe()
            return record
        counts: Dict[str, int] = {}
        for record in records:
            counts[record["status"]] = counts.get(record["status"], 0) + 1
        return {"outcomes": records, "counts": counts, **extra}


def _source_key(request: SimulateRequest) -> Tuple:
    """Everything that determines an inline-source simulate answer."""
    return (
        request.source, tuple(sorted(request.params.items())),
        request.heuristic, request.m_lines, request.cache,
    )


def _count_if_degraded(endpoint: str, body: dict) -> None:
    """Count one degraded answer when ``body`` carries an estimate.

    Brownout answers the memo or the analytic tier could make exact are
    not degraded, so they are not counted; a ``/v1/run`` body counts
    once when any of its outcomes is an estimate.
    """
    records = body.get("outcomes", [body])
    if any(record.get("degraded") is True for record in records):
        obs.counter_add(
            "repro_serve_degraded_total", 1,
            "requests answered degraded, by endpoint", endpoint=endpoint,
        )
