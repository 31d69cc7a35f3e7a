"""Per-slot circuit breaker for the worker pool.

A breaker guards one *logical worker slot* of
:class:`~repro.engine.pool.WorkerPool`.  It is a plain three-state
machine:

``closed``
    Normal operation.  Failures accumulate; reaching
    ``failure_threshold`` consecutive failures trips the breaker open.
``open``
    The slot is quarantined: :meth:`allow` answers ``False`` until the
    cooldown elapses, shrinking the pool's effective lease capacity so
    a poisoned slot cannot keep eating work.
``half_open``
    Cooldown elapsed; exactly one probe lease is allowed through.  A
    success closes the breaker and resets the cooldown; a failure
    re-opens it with the cooldown doubled (capped), so a persistently
    sick slot backs off exponentially instead of flapping.

Time comes from :mod:`repro.chaos.clock` so injected clock skew
exercises the cooldown logic deterministically in chaos runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos import clock

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: gauge encoding for ``repro_resilience_breaker_state``
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


@dataclass(frozen=True)
class BreakerPolicy:
    """Tunables for one :class:`CircuitBreaker`."""

    failure_threshold: int = 3
    cooldown_s: float = 2.0
    cooldown_factor: float = 2.0
    cooldown_cap_s: float = 30.0

    def validated(self) -> "BreakerPolicy":
        """Return self after rejecting nonsensical tunables loudly."""
        from repro.errors import ConfigError

        if self.failure_threshold < 1:
            raise ConfigError("breaker failure_threshold must be >= 1")
        if self.cooldown_s <= 0:
            raise ConfigError("breaker cooldown_s must be > 0")
        if self.cooldown_factor < 1.0:
            raise ConfigError("breaker cooldown_factor must be >= 1")
        return self


class CircuitBreaker:
    """closed / open / half-open breaker with exponential cooldown.

    Not thread-safe on its own — the pool serialises access under its
    lock.
    """

    def __init__(self, policy: BreakerPolicy = BreakerPolicy()):
        self.policy = policy.validated()
        self.state = CLOSED
        self.trips = 0
        self._failures = 0
        self._cooldown = policy.cooldown_s
        self._open_until = 0.0
        self._probe_out = False

    # -- queries -------------------------------------------------------------

    def allow(self, now: float = None) -> bool:
        """May a lease go through this slot right now?

        An open breaker whose cooldown has elapsed transitions to
        half-open and admits exactly one probe; further calls answer
        ``False`` until the probe reports back.
        """
        if now is None:
            now = clock.monotonic()
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now >= self._open_until:
                self.state = HALF_OPEN
                self._probe_out = True
                return True
            return False
        # half-open: one probe at a time
        if not self._probe_out:
            self._probe_out = True
            return True
        return False

    def cooling(self, now: float) -> bool:
        """Open with its cooldown still running at ``now``.

        Once the cooldown has passed the breaker still reads ``open``
        until :meth:`allow` sends the half-open probe, but it no longer
        keeps its slot out of service.
        """
        return self.state == OPEN and now < self._open_until

    # -- feedback ------------------------------------------------------------

    def record_success(self) -> None:
        """A lease through this slot came back clean."""
        self.state = CLOSED
        self._failures = 0
        self._probe_out = False
        self._cooldown = self.policy.cooldown_s

    def record_failure(self, now: float = None) -> None:
        """A lease through this slot died, wedged, or aborted mid-task."""
        if now is None:
            now = clock.monotonic()
        if self.state == HALF_OPEN:
            # Failed probe: back off harder.
            self._cooldown = min(
                self.policy.cooldown_cap_s,
                self._cooldown * self.policy.cooldown_factor,
            )
            self._open(now)
            return
        self._failures += 1
        if self._failures >= self.policy.failure_threshold:
            self._open(now)

    def _open(self, now: float) -> None:
        self.state = OPEN
        self.trips += 1
        self._failures = 0
        self._probe_out = False
        self._open_until = now + self._cooldown

    # -- introspection -------------------------------------------------------

    def describe(self) -> dict:
        """JSON-safe snapshot for ``health()`` / ``/readyz``."""
        return {
            "state": self.state,
            "trips": self.trips,
            "failures": self._failures,
            "cooldown_s": self._cooldown,
        }
