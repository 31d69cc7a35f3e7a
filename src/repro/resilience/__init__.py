"""Self-healing serving: circuit breaking and degraded answers.

Worker supervision itself — heartbeat wedged-worker detection, bounded
respawn with exponential backoff and per-slot circuit breakers — lives
in the one worker pool, :class:`~repro.engine.pool.WorkerPool`, which
every engine caller leases from.  This package holds the two parts the
pool and the serve tier build on:

* :mod:`repro.resilience.breaker` — the closed / open / half-open
  :class:`~repro.resilience.breaker.CircuitBreaker` state machine the
  pool keeps per logical worker slot.
* :mod:`repro.resilience.degrade` — estimator-backed ``degraded: true``
  answers for simulate-class requests when the engine is unavailable,
  each carrying an explicit ``error_bound_pct``.

The serve tier composes them into the admission ladder and brownout
mode (see ``docs/RESILIENCE.md``); fault injection to exercise them
lives in :mod:`repro.chaos`.  ``degrade`` is loaded lazily because it
imports the estimator, which the pool's breakers do not need.
"""

from repro.resilience.breaker import BreakerPolicy, CircuitBreaker

_LAZY = {
    "degraded_run_record": "repro.resilience.degrade",
    "degraded_simulate_source": "repro.resilience.degrade",
    "estimate_record": "repro.resilience.degrade",
}

__all__ = ["BreakerPolicy", "CircuitBreaker", *sorted(_LAZY)]


def __getattr__(name):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
