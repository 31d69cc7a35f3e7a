"""The worker pool: warm engine subprocesses, leased by slot, supervised.

Every caller that runs simulations on engine worker subprocesses leases
them from :class:`WorkerPool`: ``run-all`` and the campaign
:class:`~repro.campaign.coordinator.Coordinator` from a private pool
that lives for one sweep, ``repro serve``'s micro-batcher and campaign
manager from long-lived ones, so a batch pays simulation cost, not fork
cost.  An engine built with ``ExperimentEngine(config, pool=pool)``
leases workers for one sweep and releases them back warm.

A pool has ``jobs`` logical *slots*.  Each slot holds at most one worker
(idle in the pool or out on lease) and one
:class:`~repro.resilience.breaker.CircuitBreaker`:

* **Leasing by slot** — :meth:`lease` hands out warm idle workers first,
  then spawns into empty slots.  A slot goes out only when its breaker
  allows it, and a breaker is asked only for the slot about to go out,
  so a half-open slot's single probe always travels with that slot's
  worker and reports back through :meth:`release`.  When no slot may go
  out the lease raises :class:`~repro.errors.EngineError`, which the
  serve tier turns into brownout.
* **Release feedback** — a worker returned dead or mid-task (an aborted
  sweep; its pipe may hold half a message) is killed and counts as a
  failure of its slot's breaker; a clean return is a success and the
  worker stays warm.  Workers the engine replaces mid-sweep
  (:meth:`replace`) are not fed back.
* **Heartbeats** — :meth:`sweep` pings every idle worker; one that stays
  silent past :data:`PING_TIMEOUT_S` is wedged and killed.  Pongs are
  drained before the sweep ends, so none can linger in a pipe a later
  task dispatch reads.  The pinged workers leave the idle set and the
  lock is released while the sweep waits for their pongs, so health
  reads never wait on a wedged worker; a lease waits for the sweep to
  hand them back.  :meth:`start` runs a sweep every ``heartbeat_s`` on
  a background thread; only ``repro serve`` starts one, so one-shot
  sweeps run no thread.
* **Bounded respawn** — a sweep refills the slots it emptied from a
  sliding budget (:data:`MAX_RESPAWNS`, one credit back per clean
  sweep) under exponential backoff, so a crash loop shrinks the pool
  instead of fork-bombing the host, and capacity recovers once the
  crashes stop.

The pool is thread-safe: every entry point serialises on one lock.
Breaker cooldowns and respawn backoff run on :mod:`repro.chaos.clock`,
so chaos schedules can skew them; the heartbeat's I/O wait is real time.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import threading
import time
from typing import Iterator, List, Optional, Set

from repro.chaos import clock
from repro.engine.worker import worker_main
from repro.errors import EngineError
from repro.obs import runtime as obs
from repro.resilience.breaker import STATE_CODES, BreakerPolicy, CircuitBreaker

#: real seconds an idle worker has to answer a heartbeat ping
PING_TIMEOUT_S = 2.0
#: respawn credits; each clean sweep refills one
MAX_RESPAWNS = 16
#: delay after a sweep with casualties before the next respawn; it
#: doubles per such sweep up to the cap and resets on a clean one
RESPAWN_BACKOFF_S = 0.05
RESPAWN_BACKOFF_CAP_S = 5.0
#: tunables of every slot's circuit breaker
BREAKER_POLICY = BreakerPolicy()

_ping_tokens = itertools.count()


class _Worker:
    """One subprocess plus its pipe, its slot and current assignment."""

    def __init__(self, ctx, slot: int):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=worker_main, args=(child,), daemon=True)
        self.proc.start()
        child.close()
        self.task = None  # the engine's Task while one is dispatched
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


class WorkerPool:
    """Up to ``jobs`` warm engine worker subprocesses, one per slot.

    Workers are spawned lazily on :meth:`lease` (or eagerly by
    :meth:`warm`) and live until :meth:`close`, a crash, or coming back
    mid-task.  ``heartbeat_s`` is the interval of the thread
    :meth:`start` launches; nothing runs in the background until then.
    """

    def __init__(self, jobs: int = 4, heartbeat_s: float = 0.5):
        if jobs < 1:
            raise EngineError(f"worker pool needs at least 1 job, got {jobs}")
        if heartbeat_s <= 0:
            raise EngineError("pool heartbeat interval must be > 0")
        self.jobs = jobs
        self.heartbeat_s = heartbeat_s
        self._ctx = _mp_context()
        self._lock = threading.RLock()
        # a sweep ended, a lease came back or the pool closed
        self._changed = threading.Condition(self._lock)
        self._idle: List[_Worker] = []
        self._pinging: Set[int] = set()  # slots a sweep has off _idle
        self._out: Set[int] = set()  # slots out on lease
        self._closed = False
        self._breakers = [CircuitBreaker(BREAKER_POLICY) for _ in range(jobs)]
        self._respawn_budget = MAX_RESPAWNS
        self._backoff = RESPAWN_BACKOFF_S
        self._respawn_not_before = 0.0
        self._respawns_total = 0
        self._wedged_total = 0
        self._sweeps = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- introspection ------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def idle_count(self) -> int:
        """Warm workers currently parked in the pool."""
        with self._lock:
            return len(self._idle)

    @property
    def leased_count(self) -> int:
        """Workers currently out on lease to an engine."""
        with self._lock:
            return len(self._out)

    @property
    def healthy(self) -> bool:
        """Open, not fully quarantined, and with respawn credit left."""
        with self._lock:
            return (
                not self._closed
                and self._open_slots() < self.jobs
                and self._respawn_budget > 0
            )

    def health(self) -> dict:
        """Machine-readable pool state for ``/readyz`` and tests."""
        with self._lock:
            return {
                "supervised": self._thread is not None,
                "healthy": self.healthy,
                "capacity": self.jobs,
                "idle": len(self._idle),
                "leased": len(self._out),
                "breakers": {
                    str(slot): breaker.describe()
                    for slot, breaker in enumerate(self._breakers)
                },
                "breakers_open": self._open_slots(),
                "respawns_total": self._respawns_total,
                "wedged_total": self._wedged_total,
                "respawn_budget": self._respawn_budget,
                "sweeps": self._sweeps,
            }

    # -- life cycle ---------------------------------------------------------

    def warm(self, count: Optional[int] = None) -> int:
        """Spawn idle workers into empty slots so a first lease pays no fork.

        Returns the number of idle workers after warming (at most
        ``count``, default ``jobs``).
        """
        with self._lock:
            self._require_open()
            want = self.jobs if count is None else max(0, min(count, self.jobs))
            for slot in self._empty_slots():
                if len(self._idle) >= want:
                    break
                self._idle.append(self._spawn(slot))
            return len(self._idle)

    def lease(self, count: int) -> List[_Worker]:
        """Hand out up to ``count`` live workers (at least one).

        Warm idle workers go first, then empty slots get fresh spawns;
        dead idle workers found here are replaced silently.  A slot goes
        out only if its breaker allows it.  While every slot that may go
        out is out on lease, the call waits for a release; it raises
        :class:`~repro.errors.EngineError` when every slot's breaker is
        cooling down.

        The lease is atomic: if a spawn fails partway, every worker
        already gathered goes back to the idle set before the error
        propagates, so a failed lease never leaks workers that are
        neither idle nor leased.
        """
        with self._lock:
            while True:
                leased = self._gather(count)
                if leased:
                    self._out.update(worker.slot for worker in leased)
                    return leased
                if self._open_slots() == self.jobs:
                    raise EngineError(
                        "all worker circuit breakers are open; "
                        "pool is quarantined"
                    )
                # Every other slot is out on lease: wait for a release.
                # The timeout re-reads the breakers, whose cooldowns
                # end without a notification.
                self._changed.wait(self.heartbeat_s)

    def _gather(self, count: int) -> List[_Worker]:
        """One pass of :meth:`lease` over the slots (lock held)."""
        while self._pinging and not self._closed:
            self._changed.wait()
        self._require_open()
        count = max(1, min(count, self.jobs))
        now = clock.monotonic()
        idle = {worker.slot: worker for worker in self._idle}
        leased: List[_Worker] = []
        try:
            for slot in list(idle) + self._empty_slots():
                if len(leased) == count:
                    break
                breaker = self._breakers[slot]
                if not breaker.allow(now):
                    continue
                worker = idle.get(slot)
                if worker is not None:
                    self._idle.remove(worker)
                    if not worker.proc.is_alive():
                        worker.kill()
                        worker = None
                if worker is None:
                    try:
                        worker = self._spawn(slot)
                    except BaseException:
                        # a slot that cannot spawn failed its turn;
                        # this also returns a half-open probe
                        breaker.record_failure(now)
                        raise
                leased.append(worker)
        except BaseException:
            # hand back what was gathered, closing any probes it took
            self.release(leased)
            raise
        return leased

    @contextlib.contextmanager
    def leased(self, count: int) -> Iterator[List[_Worker]]:
        """Context-manager lease: workers come back whatever happens.

        Yields the leased worker list and releases *that same list
        object* on exit — a caller that replaces a crashed worker must
        swap it in place (as the engine's scheduler does) so the
        replacement, not the corpse, is returned.  An exception inside
        the block still releases every worker, so a crashing sweep can
        never leak leases until the pool is silently exhausted.
        """
        workers = self.lease(count)
        try:
            yield workers
        finally:
            self.release(workers)

    def replace(self, worker: _Worker) -> _Worker:
        """Kill a leased worker and return a fresh one for its slot.

        The engine swaps a crashed, timed-out or unreachable worker in
        place mid-sweep; the replacement stays on the same lease.  It
        touches no pool state, so it feeds neither the slot's breaker
        nor the respawn budget — only :meth:`release` does.
        """
        worker.kill()
        return self._spawn(worker.slot)

    def release(self, workers) -> None:
        """Return leased workers, feeding each outcome to its slot's breaker.

        A worker still holding a task or whose process died is killed
        rather than kept: its pipe may hold a half-delivered message
        that would corrupt the next sweep.
        """
        with self._lock:
            now = clock.monotonic()
            for worker in workers:
                self._out.discard(worker.slot)
                breaker = self._breakers[worker.slot]
                if worker.task is not None or not worker.proc.is_alive():
                    breaker.record_failure(now)
                    worker.kill()
                    continue
                breaker.record_success()
                if self._closed:
                    worker.kill()
                else:
                    self._idle.append(worker)
            self._changed.notify_all()
            self._publish()

    def close(self) -> None:
        """Stop the heartbeat thread and every idle worker; later leases raise.

        Workers out on lease are killed when they come back via
        :meth:`release`.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(self.heartbeat_s + PING_TIMEOUT_S + 5)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._changed.notify_all()
            for worker in self._idle:
                worker.stop()
            self._idle.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- supervision --------------------------------------------------------

    def start(self) -> "WorkerPool":
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

        Returns ``{"pinged": n, "wedged": n, "dead": n, "respawned": n}``
        so tests can assert detection within one interval without
        timing games.
        """
        with self._lock:
            self._require_open()
            self._sweeps += 1
            checked = list(self._idle)
            self._idle.clear()
            self._pinging.update(worker.slot for worker in checked)
        # Ping and drain every pong outside the lock: a worker answers
        # inside the window or is killed.  Real time, not the chaos
        # clock: this is an I/O wait, and skewing it would turn fake
        # time into real hangs.
        dead = [w for w in checked if not w.proc.is_alive()]
        live = [w for w in checked if w.proc.is_alive()]
        pending = {}
        for worker in live:
            try:
                worker.conn.send(("ping", next(_ping_tokens)))
                pending[worker.conn] = worker
            except (BrokenPipeError, OSError):
                dead.append(worker)
        wedged: List[_Worker] = []
        deadline = time.monotonic() + PING_TIMEOUT_S
        for conn in list(pending):
            if not conn.poll(max(0.0, deadline - time.monotonic())):
                continue
            worker = pending.pop(conn)
            try:
                if conn.recv()[0] != "pong":  # pragma: no cover
                    wedged.append(worker)
            except Exception:
                dead.append(worker)
        wedged.extend(pending.values())
        with self._lock:
            self._pinging.difference_update(worker.slot for worker in checked)
            self._changed.notify_all()
            for worker in wedged:
                self._wedged_total += 1
                self._breakers[worker.slot].record_failure()
                obs.counter_add(
                    "repro_resilience_wedged_total",
                    1,
                    help="idle workers found unresponsive to heartbeat pings",
                )
            casualties = dead + wedged
            for worker in checked:
                if worker in casualties:
                    worker.kill()
                elif self._closed:  # closed while the pings were out
                    worker.stop()
                else:
                    self._idle.append(worker)
            respawned = 0 if self._closed else self._respawn(len(casualties))
            if not casualties:
                # Clean sweep: refill one respawn credit, relax backoff.
                self._respawn_budget = min(
                    MAX_RESPAWNS, self._respawn_budget + 1
                )
                self._backoff = RESPAWN_BACKOFF_S
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
        """Refill emptied slots, subject to budget and backoff."""
        if casualties < 1:
            return 0
        now = clock.monotonic()
        respawned = 0
        for slot in self._empty_slots():
            if (
                respawned == casualties
                or self._respawn_budget < 1
                or now < self._respawn_not_before
            ):
                break
            self._idle.append(self._spawn(slot))
            self._respawn_budget -= 1
            self._respawns_total += 1
            respawned += 1
            obs.counter_add(
                "repro_resilience_respawns_total",
                1,
                help="workers automatically respawned by the pool supervisor",
            )
        # Any casualty stretches the delay before the next respawn; a
        # clean sweep resets it (see sweep()).
        self._respawn_not_before = now + self._backoff
        self._backoff = min(RESPAWN_BACKOFF_CAP_S, self._backoff * 2)
        return respawned

    # -- internals ----------------------------------------------------------

    def _open_slots(self) -> int:
        """Slots whose breaker cooldown is still running (lock held).

        A breaker whose cooldown has passed is not counted: its slot's
        next lease is the half-open probe, and counting it would keep
        the serve tier in brownout, where nothing leases.
        """
        now = clock.monotonic()
        return sum(1 for breaker in self._breakers if breaker.cooling(now))

    def _empty_slots(self) -> List[int]:
        """Slots with no worker, idle, pinged or leased (lock held)."""
        taken = self._out.union(self._pinging)
        taken.update(worker.slot for worker in self._idle)
        return [slot for slot in range(self.jobs) if slot not in taken]

    def _spawn(self, slot: int) -> _Worker:
        return _Worker(self._ctx, slot)

    def _publish(self) -> None:
        if self._thread is None:
            return  # a one-shot sweep's pool adds no gauges to its metrics
        for slot, breaker in enumerate(self._breakers):
            obs.gauge_set(
                "repro_resilience_breaker_state",
                STATE_CODES[breaker.state],
                help="0=closed 1=half_open 2=open, per logical worker slot",
                slot=str(slot),
            )

    def _require_open(self) -> None:
        if self._closed:
            raise EngineError("worker pool is closed")


def _mp_context():
    """Fork where available (cheap workers); spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context("spawn")
