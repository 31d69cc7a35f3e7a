"""Worker-process side of the execution engine.

Each worker owns a private memoizing :class:`~repro.experiments.runner.Runner`
(so paddings and programs are reused across the tasks it serves) and talks
to the parent over a pipe:

* parent -> worker: ``("task", task_id, RunRequest, simulator, fault,
  collect, guard, jit, tier)``, ``("ping", token)`` or ``("stop",)``;
  ``fault`` is ``None`` or ``(kind, param)`` from the fault-injection
  plan (a ``layout`` fault's param names the corruption kind, a
  ``slow`` fault's is the stall in seconds), ``collect`` asks the
  worker to gather a metrics snapshot for the task, ``guard`` is a
  :class:`~repro.guard.config.GuardConfig` record or ``None``, ``jit``
  is the trace-engine policy and ``tier`` the analytic tier-0 policy.
  A ``ping`` is the worker pool's heartbeat
  (:meth:`repro.engine.pool.WorkerPool.sweep`): a live, unwedged worker
  echoes ``("pong", token)`` immediately.
* worker -> parent: ``("ok", task_id, stats_payload, checksum, metrics,
  guard_report, tier)`` (``metrics`` is a registry snapshot or ``None``;
  ``guard_report`` is a :class:`~repro.guard.config.GuardReport` record
  or ``None``; ``tier`` says where the runner's answer came from, e.g.
  ``"analytic"`` or ``"sim"``), ``("guard", task_id, message)`` when a
  strict guard rejected the layout, or ``("error", task_id, message)``.

The checksum is computed *before* any injected corruption, so a mangled
payload is detectable by the parent — exactly like a worker whose memory
was scribbled on.  Crash containment is the parent's job: this module
deliberately lets injected kills take the whole process down.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.engine.faults import InjectedFault, corrupt_layout
from repro.engine.store import checksum
from repro.errors import GuardViolationError
from repro.guard import runtime as guard_runtime
from repro.guard.config import GuardConfig
from repro.obs import runtime as obs

#: exit codes chosen to mimic SIGKILL / SIGABRT deaths
KILL_EXIT_CODE = 137
OOM_EXIT_CODE = 134


def worker_main(conn) -> None:
    """Serve tasks until told to stop or the pipe closes."""
    from repro.experiments.runner import Runner

    # Forked workers inherit the parent's metrics registry and span/guard
    # sinks (which may hold the parent's journal file handle).  Start clean
    # so a worker never double-counts or writes to the parent's journal —
    # guard verdicts travel home on the result pipe and the parent
    # re-journals them.
    obs.disable()
    obs.reset()
    guard_runtime.clear_sinks()
    guard_runtime.deactivate()
    runner = Runner()
    parent = os.getppid()
    while True:
        try:
            # Forked siblings (and this process itself) inherit the
            # parent's pipe ends, so a SIGKILLed parent produces no EOF
            # here — an orphaned worker would block in recv() forever.
            # Poll with a bounded wait and watch for reparenting instead:
            # when the parent dies, getppid() changes and we exit.
            while not conn.poll(1.0):
                if os.getppid() != parent:
                    return
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if msg[0] == "ping":
            _send(conn, ("pong", msg[1]))
            continue
        if msg[0] != "task":
            return
        (_, task_id, request, simulator, fault, collect, guard_record,
         runner.jit, runner.predict) = msg
        kind, param = fault if fault else (None, None)
        if kind == "kill":
            os._exit(KILL_EXIT_CODE)
        if kind == "timeout":
            # Hang well past the parent's deadline; if the parent's budget
            # is somehow larger, fail loudly instead of succeeding.
            time.sleep(param)
            _send(conn, ("error", task_id, "InjectedFault: injected hang elapsed"))
            continue
        if kind == "slow":
            # Stall, then answer correctly: a latency fault the parent's
            # deadlines and the serve admission ladder must absorb.
            time.sleep(param or 0.0)
            kind = None
        try:
            if kind == "error":
                raise InjectedFault(f"injected failure in {request.program}")
            if collect:
                obs.reset()
                obs.enable()
            guard = (
                GuardConfig.from_record(guard_record) if guard_record else None
            )
            if kind == "layout":
                # Damage a copy of the layout right before simulation; the
                # guard (when active) must stop it reaching the simulator.
                runner.layout_saboteur = (
                    lambda prog, layout: corrupt_layout(prog, layout, param)
                )
            try:
                with guard_runtime.activated(guard):
                    stats = runner.run(
                        request.program,
                        request.heuristic,
                        request.cache,
                        size=request.size,
                        pad_cache=request.pad_cache,
                        m_lines=request.m_lines,
                        max_outer=request.max_outer,
                        seed=request.seed,
                        simulator=simulator,
                    )
                metrics = obs.snapshot() if collect else None
            finally:
                runner.layout_saboteur = None
                if collect:
                    obs.disable()
            report = (
                runner.last_guard.to_record() if runner.last_guard else None
            )
            payload = dataclasses.asdict(stats)
            digest = checksum(payload)
            if kind == "corrupt":
                payload = dict(payload, misses=payload["misses"] ^ 0x5A5A)
            tier = runner.last_tier
            if kind == "torn":
                _send_torn(
                    conn, ("ok", task_id, payload, digest, metrics, report, tier)
                )
                continue
            _send(conn, ("ok", task_id, payload, digest, metrics, report, tier))
        except MemoryError:  # pragma: no cover - needs a real OOM
            os._exit(OOM_EXIT_CODE)
        except GuardViolationError as exc:
            _send(conn, ("guard", task_id, str(exc)))
        except BaseException as exc:
            _send(conn, ("error", task_id, f"{type(exc).__name__}: {exc}"))


def _send(conn, msg) -> None:
    try:
        conn.send(msg)
    except (BrokenPipeError, OSError):  # parent is gone; die quietly
        os._exit(1)


def _send_torn(conn, msg) -> None:
    """Ship a deliberately torn message: a truncated pickle payload.

    The pipe frame itself is well-formed (the stream does not desync),
    but the payload cannot be unpickled — modelling a worker that died
    or was scribbled on mid-write.  The parent must treat the
    undecodable message as a worker crash and retry the task.
    """
    import pickle

    blob = pickle.dumps(msg)
    try:
        conn.send_bytes(blob[: max(1, len(blob) // 2)])
    except (BrokenPipeError, OSError):
        os._exit(1)
