"""Supervised worker pool: heartbeats, bounded respawn, circuit breakers.

:class:`~repro.engine.pool.WorkerPool` keeps engine subprocesses warm
but is deliberately passive: a worker that wedges (alive but
unresponsive) sits in the idle set poisoning future leases, and the
pool never notices capacity quietly draining away.
:class:`PoolSupervisor` wraps a pool with the active half of the story:

* **Heartbeats** — a background thread pings every *idle* worker each
  ``heartbeat_s`` (workers out on lease are the engine's to police via
  its own deadlines).  A live worker echoes ``("pong", token)``
  immediately; one that stays silent past ``ping_timeout_s`` is wedged
  and gets killed.  Pongs are fully drained before the sweep ends, so a
  heartbeat can never leave a stale message in a pipe that a later
  sweep's task dispatch would trip over.
* **Bounded respawn with backoff** — killed or dead idle workers are
  replaced automatically, but respawns draw from a sliding budget
  (``max_respawns``) that refills one credit per clean sweep, and
  consecutive-failure sweeps stretch the delay between respawns
  exponentially.  A crash loop therefore degrades the pool gracefully
  instead of fork-bombing the host; once crashes stop, capacity
  recovers on its own.
* **Circuit breakers** — each *logical slot* (``worker.slot %
  pool.jobs``, a bounded identity that survives the pool's
  ever-increasing spawn counter) carries a
  :class:`~repro.resilience.breaker.CircuitBreaker`.  Lease outcomes
  feed it: a worker returned dead or mid-task is a failure, a clean
  return a success.  Open breakers shrink the capacity :meth:`lease`
  will hand out; when every slot is open the supervisor refuses the
  lease with :class:`~repro.errors.EngineError`, which the serve tier
  turns into brownout (degraded answers) rather than a 500.

The supervisor duck-types the pool interface (``ctx``, ``jobs``,
``lease``, ``release``, ``leased``, ``warm``, ``close`` …) so
``ExperimentEngine(config, pool=supervisor)`` works unchanged.  Unlike
the raw pool it **is** thread-safe: every entry point serialises on one
lock, which also keeps heartbeat sweeps from interleaving with leases.

Timing (heartbeat deadlines, breaker cooldowns, respawn backoff) runs
on :mod:`repro.chaos.clock` so chaos schedules can skew it.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from typing import Dict, Iterator, List, Optional

from repro.chaos import clock
from repro.errors import EngineError
from repro.obs import runtime as obs
from repro.resilience.breaker import (
    STATE_CODES,
    BreakerPolicy,
    CircuitBreaker,
    OPEN,
)

_ping_tokens = itertools.count()


class PoolSupervisor:
    """Self-healing wrapper around a :class:`~repro.engine.pool.WorkerPool`.

    Drop-in for the pool everywhere an engine expects one.  ``start()``
    launches the heartbeat thread (the constructor does not, so tests
    can drive sweeps by hand with :meth:`sweep`).
    """

    def __init__(
        self,
        pool,
        heartbeat_s: float = 0.5,
        ping_timeout_s: float = 2.0,
        max_respawns: int = 16,
        respawn_backoff_s: float = 0.05,
        respawn_backoff_cap_s: float = 5.0,
        breaker_policy: BreakerPolicy = BreakerPolicy(),
    ):
        if heartbeat_s <= 0 or ping_timeout_s <= 0:
            raise EngineError("supervisor intervals must be > 0")
        if max_respawns < 1:
            raise EngineError("supervisor needs max_respawns >= 1")
        self.pool = pool
        self.heartbeat_s = heartbeat_s
        self.ping_timeout_s = ping_timeout_s
        self.max_respawns = max_respawns
        self._lock = threading.RLock()
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._breaker_policy = breaker_policy.validated()
        self._respawn_budget = max_respawns
        self._backoff_base = respawn_backoff_s
        self._backoff_cap = respawn_backoff_cap_s
        self._backoff = respawn_backoff_s
        self._respawn_not_before = 0.0
        self._respawns_total = 0
        self._wedged_total = 0
        self._sweeps = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- pool duck interface -------------------------------------------------

    @property
    def ctx(self):
        return self.pool.ctx

    @property
    def jobs(self) -> int:
        return self.pool.jobs

    @property
    def closed(self) -> bool:
        return self.pool.closed

    @property
    def idle_count(self) -> int:
        with self._lock:
            return self.pool.idle_count

    @property
    def leased_count(self) -> int:
        with self._lock:
            return self.pool.leased_count

    def warm(self, count: Optional[int] = None) -> int:
        """Pre-spawn up to ``count`` idle workers (pool-default: all)."""
        with self._lock:
            return self.pool.warm(count)

    def lease(self, count: int) -> List:
        """Lease up to ``count`` workers, capped by healthy breaker slots.

        Raises :class:`~repro.errors.EngineError` when every logical
        slot's breaker is open — the signal the serve tier converts to
        brownout.
        """
        with self._lock:
            now = clock.monotonic()
            allowed = sum(
                1
                for slot in range(self.pool.jobs)
                if self._breaker(slot).allow(now)
            )
            if allowed < 1:
                raise EngineError(
                    "all worker circuit breakers are open; pool is quarantined"
                )
            return self.pool.lease(min(count, allowed))

    def release(self, workers) -> None:
        """Return a lease, feeding each worker's outcome to its breaker."""
        with self._lock:
            now = clock.monotonic()
            for worker in workers:
                breaker = self._breaker(worker.slot % self.pool.jobs)
                if worker.task is not None or not worker.proc.is_alive():
                    breaker.record_failure(now)
                else:
                    breaker.record_success()
            self.pool.release(workers)
            self._publish()

    @contextlib.contextmanager
    def leased(self, count: int) -> Iterator[List]:
        """Context-managed :meth:`lease`/:meth:`release` pair."""
        workers = self.lease(count)
        try:
            yield workers
        finally:
            self.release(workers)

    def close(self) -> None:
        """Stop the heartbeat thread, then close the underlying pool."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(self.heartbeat_s + self.ping_timeout_s + 5)
        with self._lock:
            self.pool.close()

    def __enter__(self) -> "PoolSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- supervision ---------------------------------------------------------

    def start(self) -> "PoolSupervisor":
        """Launch the background heartbeat thread (idempotent)."""
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._run, name="pool-supervisor", daemon=True
                )
                self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            try:
                self.sweep()
            except EngineError:  # pool closed under us
                return
            except Exception:  # pragma: no cover - never kill the thread
                pass

    def sweep(self) -> dict:
        """One heartbeat pass over the idle workers; safe to call directly.

        Returns ``{"pinged": n, "wedged": n, "respawned": n}`` so tests
        can assert detection-within-one-interval without timing games.
        """
        with self._lock:
            if self.pool.closed:
                raise EngineError("worker pool is closed")
            self._sweeps += 1
            idle = list(self.pool._idle)
            wedged: List = []
            dead = [w for w in idle if not w.proc.is_alive()]
            live = [w for w in idle if w.proc.is_alive()]
            pending = {}
            for worker in live:
                token = next(_ping_tokens)
                try:
                    worker.conn.send(("ping", token))
                    pending[worker.conn] = worker
                except (BrokenPipeError, OSError):
                    dead.append(worker)
            # Drain every pong before the sweep ends: a worker either
            # answers inside the window or is killed, so no late pong can
            # linger in a pipe the engine will later read task results
            # from.  (time.monotonic, not the chaos clock: this is a real
            # I/O wait, and skewing it would turn fake time into real
            # hangs.)
            import time as _time

            deadline = _time.monotonic() + self.ping_timeout_s
            for conn in list(pending):
                if not conn.poll(max(0.0, deadline - _time.monotonic())):
                    continue
                worker = pending.pop(conn)
                try:
                    msg = conn.recv()
                    if msg[0] != "pong":  # pragma: no cover - protocol drift
                        wedged.append(worker)
                except Exception:
                    dead.append(worker)
            wedged.extend(pending.values())
            for worker in wedged:
                self._wedged_total += 1
                self._breaker(worker.slot % self.pool.jobs).record_failure()
                obs.counter_add(
                    "repro_resilience_wedged_total",
                    1,
                    help="idle workers found unresponsive to heartbeat pings",
                )
            casualties = dead + wedged
            for worker in casualties:
                try:
                    self.pool._idle.remove(worker)
                except ValueError:  # pragma: no cover - raced a lease
                    continue
                worker.kill()
            respawned = self._respawn(len(casualties))
            if not casualties:
                # Clean sweep: refill one respawn credit, relax backoff.
                self._respawn_budget = min(
                    self.max_respawns, self._respawn_budget + 1
                )
                self._backoff = self._backoff_base
            obs.counter_add(
                "repro_resilience_heartbeats_total",
                1,
                help="heartbeat sweeps completed by the pool supervisor",
            )
            self._publish()
            return {
                "pinged": len(live),
                "wedged": len(wedged),
                "dead": len(dead),
                "respawned": respawned,
            }

    def _respawn(self, casualties: int) -> int:
        """Replace culled workers, subject to budget and backoff."""
        if casualties < 1:
            return 0
        now = clock.monotonic()
        respawned = 0
        while (
            casualties > 0
            and self._respawn_budget > 0
            and now >= self._respawn_not_before
            and self.pool.idle_count + self.pool.leased_count < self.pool.jobs
        ):
            self.pool._idle.append(self.pool._spawn())
            self._respawn_budget -= 1
            self._respawns_total += 1
            casualties -= 1
            respawned += 1
            obs.counter_add(
                "repro_resilience_respawns_total",
                1,
                help="workers automatically respawned by the pool supervisor",
            )
        # Any failure this sweep stretches the delay before the next
        # respawn; a clean sweep resets it (see sweep()).
        self._respawn_not_before = now + self._backoff
        self._backoff = min(self._backoff_cap, self._backoff * 2)
        return respawned

    # -- introspection -------------------------------------------------------

    def health(self) -> dict:
        """Machine-readable supervisor state for /readyz and tests."""
        with self._lock:
            states = [b.state for b in self._breakers.values()]
            open_count = sum(1 for s in states if s == OPEN)
            return {
                "supervised": True,
                "healthy": (
                    not self.pool.closed
                    and open_count < self.pool.jobs
                    and self._respawn_budget > 0
                ),
                "capacity": self.pool.jobs,
                "idle": self.pool.idle_count,
                "leased": self.pool.leased_count,
                "breakers": {
                    str(slot): breaker.describe()
                    for slot, breaker in sorted(self._breakers.items())
                },
                "breakers_open": open_count,
                "respawns_total": self._respawns_total,
                "wedged_total": self._wedged_total,
                "respawn_budget": self._respawn_budget,
                "sweeps": self._sweeps,
            }

    # -- internals -----------------------------------------------------------

    def _breaker(self, slot: int) -> CircuitBreaker:
        breaker = self._breakers.get(slot)
        if breaker is None:
            breaker = self._breakers[slot] = CircuitBreaker(
                self._breaker_policy
            )
        return breaker

    def _publish(self) -> None:
        for slot, breaker in self._breakers.items():
            obs.gauge_set(
                "repro_resilience_breaker_state",
                STATE_CODES[breaker.state],
                help="0=closed 1=half_open 2=open, per logical worker slot",
                slot=str(slot),
            )
