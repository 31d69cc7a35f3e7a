"""Deterministic fault injection for the execution engine.

A :class:`FaultPlan` assigns each (run, attempt) pair an injected fault —
or none — as a pure function of the plan's seed, so a chaos test that
fails can be replayed exactly.  Kinds:

* ``timeout`` — the worker hangs past its wall-clock budget (the engine
  must kill it and account a :class:`~repro.errors.RunTimeout`);
* ``kill``    — the worker hard-exits mid-run, simulating a segfault or
  the OOM killer (engine sees :class:`~repro.errors.WorkerCrashed`);
* ``error``   — the run raises :class:`InjectedFault`;
* ``corrupt`` — the worker returns a result whose payload no longer
  matches its checksum (engine must detect and retry, never store it);
* ``layout`` — the worker's memory layout is deterministically corrupted
  before simulation (see :data:`LAYOUT_CORRUPTIONS`); the guard
  subsystem (:mod:`repro.guard`) must catch every one of these;
* ``slow``  — the worker sleeps :attr:`FaultPlan.slow_s` seconds, then
  answers correctly (a brownout/latency fault, not a correctness one:
  deadlines and admission ladders must absorb it);
* ``torn``  — the worker computes the right answer but ships a torn
  pipe message (a truncated pickle); the parent must treat the
  undecodable message as a crash and retry, never hang or die.

Plans are usually built from a :class:`~repro.chaos.ChaosSchedule`
(the ``--chaos`` file), whose ``campaign`` section adds a coordinator
kill and disk-tier row corruption (:func:`corrupt_disk_tier`).

:func:`corrupt_disk_tier` complements the plan by damaging rows of an
on-disk result store, exercising the store's quarantine path;
:func:`corrupt_layout` damages a :class:`~repro.layout.layout.MemoryLayout`
in one of :data:`LAYOUT_CORRUPTIONS` ways, bypassing the layout's safe
setters exactly like a buggy driver would.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

FAULT_KINDS = ("timeout", "kill", "error", "corrupt", "layout", "slow", "torn")


class InjectedFault(RuntimeError):
    """Exception raised inside a worker by an injected ``error`` fault."""


def unit_interval(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform value in [0, 1) for (seed, key, attempt)."""
    digest = hashlib.sha256(f"{seed}|{key}|{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """Per-kind injection probabilities, resolved deterministically by seed."""

    timeout: float = 0.0
    kill: float = 0.0
    error: float = 0.0
    corrupt: float = 0.0
    layout: float = 0.0
    slow: float = 0.0
    torn: float = 0.0
    slow_s: float = 0.25  # how long a ``slow`` fault stalls (not a rate)
    seed: int = 0

    def __post_init__(self):
        for kind in FAULT_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"fault rate {kind}={rate} outside [0, 1]")
        if sum(getattr(self, kind) for kind in FAULT_KINDS) > 1.0:
            raise ConfigError("fault rates sum to more than 1")
        if self.slow_s < 0:
            raise ConfigError(f"slow_s={self.slow_s} must be >= 0")

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """The fault (if any) to inject into this run attempt.

        Pure in (plan, key, attempt): replaying a sweep with the same plan
        injects exactly the same faults at the same points.
        """
        u = unit_interval(self.seed, key, attempt)
        edge = 0.0
        for kind in FAULT_KINDS:
            edge += getattr(self, kind)
            if u < edge:
                return kind
        return None


def corrupt_disk_tier(path, fraction: float, seed: int = 0) -> int:
    """Damage a deterministic ``fraction`` of a result store's rows.

    Overwrites the chosen rows' checksums in the SQLite ``results``
    table, so the next read must quarantine them and the sweep or
    campaign must re-simulate those runs.  Returns the number of rows
    damaged.  Chaos-test helper — the write path deliberately bypasses
    :class:`~repro.engine.store.CrashSafeStore`, exactly like real bit
    rot would.
    """
    import sqlite3

    conn = sqlite3.connect(str(path))
    try:
        keys = [
            row[0]
            for row in conn.execute("SELECT key FROM results ORDER BY key")
        ]
        hit = 0
        for key in keys:
            if unit_interval(seed, key, 0) < fraction:
                conn.execute(
                    "UPDATE results SET sum = 'deadbeef' WHERE key = ?",
                    (key,),
                )
                hit += 1
        conn.commit()
        return hit
    finally:
        conn.close()


LAYOUT_CORRUPTIONS = (
    "overlap",         # alias one variable's base onto its predecessor's
    "swap_bases",      # exchange two variables' bases (semantic swap)
    "shift_base",      # slide the last-placed array by one element
    "shrink_dim",      # padded dim below the declared size
    "shrink",          # padded dim shrunk toward (not below) declared
    "zero_dim",        # a dimension collapses to zero
    "drop_base",       # a variable loses its placement
    "negative_base",   # base address below zero
    "misalign_base",   # base no longer element-aligned
    "rank_mismatch",   # dim-size tuple gains a bogus dimension
    "pad_explosion",   # one dimension blows up by orders of magnitude
)
"""Deterministic layout corruption kinds for chaos testing.

Each mutates a layout's private state directly — modelling a buggy
padding driver, not a misuse of the public API — and every one must be
caught by :mod:`repro.guard`: the structural kinds by the invariant
checker, ``swap_bases``/``shift_base`` by the semantic sanitizer, and
``pad_explosion`` by the overlap or memory-budget check.
"""


def choose_corruption(seed: int, key: str, attempt: int) -> str:
    """Deterministically pick a corruption kind for one run attempt."""
    u = unit_interval(seed, f"layout|{key}", attempt)
    return LAYOUT_CORRUPTIONS[int(u * len(LAYOUT_CORRUPTIONS))]


def corrupt_layout(prog, layout, kind: str, seed: int = 0) -> str:
    """Apply one :data:`LAYOUT_CORRUPTIONS` kind to ``layout`` in place.

    Victim selection is a pure function of ``seed`` so a chaos test that
    fails replays exactly.  Returns a description of the damage done.
    """
    if kind not in LAYOUT_CORRUPTIONS:
        raise ConfigError(
            f"unknown layout corruption {kind!r}; known: {LAYOUT_CORRUPTIONS}"
        )
    arrays = [d for d in prog.arrays if layout.has_base(d.name)]
    if not arrays:
        raise ConfigError("cannot corrupt a layout with no placed arrays")

    def pick(candidates, salt: str):
        u = unit_interval(seed, f"{kind}|{salt}", 0)
        return candidates[int(u * len(candidates))]

    if kind == "overlap":
        placed = sorted(
            (d for d in prog.decls if layout.has_base(d.name)),
            key=lambda d: layout.base(d.name),
        )
        if len(placed) < 2:
            raise ConfigError("overlap corruption needs two placed variables")
        victim = pick(placed[1:], "victim")
        index = placed.index(victim)
        layout._bases[victim.name] = layout.base(placed[index - 1].name)
        return f"aliased {victim.name} onto {placed[index - 1].name}"
    if kind == "swap_bases":
        if len(arrays) < 2:
            raise ConfigError("swap_bases corruption needs two placed arrays")
        # Prefer a same-size pair: the swap then passes every structural
        # check and only the semantic sanitizer can catch it.
        pair = None
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                if layout.size_bytes(a.name) == layout.size_bytes(b.name):
                    pair = (a, b)
                    break
            if pair:
                break
        if pair is None:
            pair = (arrays[0], arrays[1])
        a, b = pair
        layout._bases[a.name], layout._bases[b.name] = (
            layout._bases[b.name], layout._bases[a.name],
        )
        return f"swapped bases of {a.name} and {b.name}"
    if kind == "shift_base":
        victim = max(arrays, key=lambda d: layout.base(d.name))
        layout._bases[victim.name] += victim.element_size
        return f"shifted {victim.name} by {victim.element_size}B"
    if kind == "shrink_dim":
        candidates = [d for d in arrays if d.dim_sizes[0] >= 2] or arrays
        victim = pick(candidates, "victim")
        sizes = list(layout.dim_sizes(victim.name))
        sizes[0] = victim.dim_sizes[0] - 1
        layout._dim_sizes[victim.name] = tuple(sizes)
        return f"shrank {victim.name} dim 0 to {sizes[0]}"
    if kind == "shrink":
        # Shrink an intra-padded dim back toward its declared size: the
        # declared floor still holds, strides stay self-consistent and
        # (the victim only getting smaller) nothing overlaps — only the
        # committed-size witness can condemn it.  With no intra-padded
        # array to sabotage, fall through to a below-declared shrink.
        padded = [
            (d, dim)
            for d in arrays
            for dim, extra in enumerate(layout.intra_pads(d.name))
            if extra > 0
        ]
        if padded:
            victim, dim = pick(padded, "victim")
            sizes = list(layout.dim_sizes(victim.name))
            sizes[dim] -= 1
            layout._dim_sizes[victim.name] = tuple(sizes)
            return f"shrank {victim.name} dim {dim} to {sizes[dim]} (>= declared)"
        victim = pick([d for d in arrays if d.dim_sizes[0] >= 2] or arrays, "victim")
        sizes = list(layout.dim_sizes(victim.name))
        sizes[0] = victim.dim_sizes[0] - 1
        layout._dim_sizes[victim.name] = tuple(sizes)
        return f"shrank {victim.name} dim 0 to {sizes[0]}"
    if kind == "zero_dim":
        victim = pick(arrays, "victim")
        sizes = list(layout.dim_sizes(victim.name))
        sizes[-1] = 0
        layout._dim_sizes[victim.name] = tuple(sizes)
        return f"zeroed {victim.name} dim {len(sizes) - 1}"
    if kind == "drop_base":
        victim = pick(arrays, "victim")
        del layout._bases[victim.name]
        return f"dropped placement of {victim.name}"
    if kind == "negative_base":
        victim = pick(arrays, "victim")
        layout._bases[victim.name] = -victim.element_size
        return f"placed {victim.name} at {-victim.element_size}"
    if kind == "misalign_base":
        candidates = [d for d in arrays if d.element_size > 1]
        if candidates:
            victim = pick(candidates, "victim")
            layout._bases[victim.name] += victim.element_size // 2
            return f"misaligned {victim.name} by {victim.element_size // 2}B"
        # Byte arrays cannot be misaligned; shifting a whole element is
        # still a corruption (semantic shift) the sanitizer catches.
        victim = max(arrays, key=lambda d: layout.base(d.name))
        layout._bases[victim.name] += 1
        return f"shifted byte array {victim.name} by 1B"
    if kind == "rank_mismatch":
        victim = pick(arrays, "victim")
        layout._dim_sizes[victim.name] = layout.dim_sizes(victim.name) + (2,)
        return f"appended a bogus dimension to {victim.name}"
    if kind == "pad_explosion":
        victim = pick(arrays, "victim")
        sizes = list(layout.dim_sizes(victim.name))
        sizes[0] *= 4099
        layout._dim_sizes[victim.name] = tuple(sizes)
        return f"exploded {victim.name} dim 0 to {sizes[0]}"
    raise AssertionError(f"unhandled corruption kind {kind}")  # pragma: no cover
