"""Long-lived worker pool: warm engine subprocesses shared across sweeps.

:class:`ExperimentEngine` historically spawned its worker subprocesses at
the start of every :meth:`~repro.engine.core.ExperimentEngine.run_many`
and tore them down at the end — the right life cycle for a one-shot
sweep, but pure overhead for a long-lived service dispatching many small
micro-batches (``repro serve``): every batch would pay process fork and
import costs before simulating anything.

:class:`WorkerPool` decouples worker life time from sweep life time.  A
pool owns up to ``jobs`` worker subprocesses; an engine constructed with
``ExperimentEngine(config, pool=pool)`` leases workers for the duration
of one ``run_many`` and releases them back — still warm — when the sweep
finishes.  Dead or mid-task workers are culled on release, so a crash in
one batch never poisons the next.

The pool is deliberately **not** thread-safe: it is designed to be owned
by a single dispatcher thread (the serve micro-batcher), mirroring how
the engine itself is driven.  Guard it externally if you must share it.
"""

from __future__ import annotations

import contextlib
import multiprocessing
from typing import Iterator, List, Optional

from repro.errors import EngineError


class WorkerPool:
    """A bounded set of warm engine worker subprocesses.

    ``jobs`` caps how many workers exist at once.  Workers are spawned
    lazily on :meth:`lease` (or eagerly via :meth:`warm`) and live until
    :meth:`close`, a crash, or being caught mid-task on release.
    """

    def __init__(self, jobs: int = 4, ctx=None):
        if jobs < 1:
            raise EngineError(f"worker pool needs at least 1 job, got {jobs}")
        self.jobs = jobs
        self._ctx = ctx or _mp_context()
        self._idle: List = []
        self._leased = 0
        self._next_slot = 0
        self._closed = False

    # -- introspection ------------------------------------------------------

    @property
    def ctx(self):
        """The multiprocessing context workers are spawned from."""
        return self._ctx

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def idle_count(self) -> int:
        """Warm workers currently parked in the pool."""
        return len(self._idle)

    @property
    def leased_count(self) -> int:
        """Workers currently out on lease to an engine."""
        return self._leased

    # -- life cycle ---------------------------------------------------------

    def warm(self, count: Optional[int] = None) -> int:
        """Pre-spawn idle workers so the first batch pays no fork cost.

        Returns the number of idle workers after warming (capped at
        ``jobs``).
        """
        self._require_open()
        want = self.jobs if count is None else max(0, min(count, self.jobs))
        while len(self._idle) < want:
            self._idle.append(self._spawn())
        return len(self._idle)

    def lease(self, count: int) -> List:
        """Hand out up to ``count`` live workers (at least one).

        Warm idle workers are reused first; the rest are spawned.  Dead
        idle workers discovered here are culled silently.

        The lease is atomic: if a spawn fails partway, every worker
        already gathered for this lease goes back to the idle set (live
        ones warm, corpses culled) before the error propagates — a
        failed lease can never leak a partial lease that is neither
        returned nor released, silently shrinking the pool.
        """
        self._require_open()
        count = max(1, min(count, self.jobs))
        leased: List = []
        try:
            while self._idle and len(leased) < count:
                worker = self._idle.pop()
                if worker.proc.is_alive():
                    leased.append(worker)
                else:
                    worker.kill()
            while len(leased) < count:
                leased.append(self._spawn())
        except BaseException:
            for worker in leased:
                if worker.proc.is_alive() and worker.task is None:
                    self._idle.append(worker)
                else:  # pragma: no cover - spawn died under us
                    worker.kill()
            raise
        self._leased += len(leased)
        return leased

    @contextlib.contextmanager
    def leased(self, count: int) -> Iterator[List]:
        """Context-manager lease: workers come back whatever happens.

        Yields the leased worker list and releases *that same list
        object* on exit — callers that replace a crashed worker must
        mutate the yielded list in place (as the engine's scheduler
        does) so the replacement, not the corpse, is returned to the
        pool.  An exception inside the block still releases every
        worker, so a crashing sweep can never leak leases until the
        pool is silently exhausted.
        """
        workers = self.lease(count)
        try:
            yield workers
        finally:
            self.release(workers)

    def release(self, workers) -> None:
        """Return leased workers; idle live ones are kept warm.

        A worker still holding a task (an aborted sweep) or whose
        process died is killed rather than reused — its pipe may hold a
        half-delivered message that would corrupt the next sweep.
        """
        for worker in workers:
            self._leased = max(0, self._leased - 1)
            if self._closed or worker.task is not None or not worker.proc.is_alive():
                worker.kill()
            else:
                self._idle.append(worker)

    def close(self) -> None:
        """Stop every idle worker; later leases raise.

        Workers out on lease are killed when they come back via
        :meth:`release`.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._idle:
            worker.stop()
        self._idle.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _spawn(self):
        from repro.engine.core import _Worker

        worker = _Worker(self._ctx, slot=self._next_slot)
        self._next_slot += 1
        return worker

    def _require_open(self) -> None:
        if self._closed:
            raise EngineError("worker pool is closed")


def _mp_context():
    """Fork where available (cheap workers); spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context("spawn")
