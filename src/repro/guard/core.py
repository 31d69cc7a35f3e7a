"""Guard orchestration: validate a transformed layout before committing.

:func:`check_transform` runs the three checkers in escalating cost
order — layout invariants (pure bookkeeping), the semantic sanitizer
(two trace interpretations, no simulation), then the miss-rate
regression guard (two cache simulations) — and decides the outcome:

* clean → the padded stats are committed (``passed``);
* any invariant or sanitizer violation → in ``strict`` mode a
  :class:`~repro.errors.GuardViolationError` is raised *before the
  transformed layout reaches a simulator*; in ``warn`` mode the
  violations are journaled and the run auto-rolls back to the original
  layout's stats (``rolled_back``) — a corrupted layout never produces
  committed numbers in either mode;
* a miss-rate regression past epsilon → auto-rollback to the original
  layout's stats (``rolled_back``) in both modes: a pessimizing pad is
  a guard *save*, not a run failure.

:func:`check_padding` is the cheaper driver-level hook: budget
degradation plus the invariant checker, attached to the
:class:`~repro.padding.common.PaddingResult` as it leaves a driver.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.cache.stats import CacheStats
from repro.errors import GuardViolationError
from repro.guard import runtime as rt
from repro.guard.config import (
    STATUS_PASSED,
    STATUS_ROLLED_BACK,
    DroppedPad,
    GuardConfig,
    GuardReport,
    GuardViolation,
)
from repro.guard.invariants import check_layout, enforce_budget
from repro.guard.regression import regression_violation
from repro.guard.sanitizer import sanitize
from repro.ir.program import Program
from repro.layout.layout import MemoryLayout, original_layout
from repro.obs import runtime as obs

SimulateFn = Callable[[Program, MemoryLayout], CacheStats]


def _raise_strict(violations: Sequence[GuardViolation]) -> None:
    raise GuardViolationError(
        "guard (strict): "
        + "; ".join(v.describe() for v in violations[:5])
        + (f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""),
        violations=violations,
    )


def check_padding(
    prog: Program,
    layout: MemoryLayout,
    config: GuardConfig,
    run_key: Optional[str] = None,
) -> GuardReport:
    """Driver-level guard: budget degradation + layout invariants.

    Mutates ``layout`` when budget degradation drops pads.  Raises
    :class:`GuardViolationError` in strict mode on any violation.
    """
    with obs.span("guard.padding"):
        dropped = []
        if config.budget_bytes is not None:
            dropped = enforce_budget(prog, layout, config.budget_bytes)
            for drop in dropped:
                rt.emit_drop(drop, run_key)
        rt.emit_check("invariants")
        violations = check_layout(prog, layout, budget_bytes=config.budget_bytes)
        for violation in violations:
            rt.emit_violation(violation, run_key)
        if violations and config.strict:
            _raise_strict(violations)
        report = GuardReport(
            status="warned" if violations else STATUS_PASSED,
            violations=violations,
            dropped=dropped,
        )
        return report


def check_transform(
    prog: Program,
    layout: MemoryLayout,
    config: GuardConfig,
    simulate_fn: SimulateFn,
    baseline_layout: Optional[MemoryLayout] = None,
    baseline_stats: Optional[CacheStats] = None,
    seed: int = 12345,
    run_key: Optional[str] = None,
    dropped: Sequence[DroppedPad] = (),
    reference_layout: Optional[MemoryLayout] = None,
    jit: str = "auto",
) -> Tuple[GuardReport, CacheStats]:
    """Full guard for one run; returns the verdict and the stats to commit.

    ``simulate_fn(prog, layout)`` produces cache stats for one layout;
    ``baseline_stats`` short-circuits the baseline simulation when the
    caller already has it (the runner memoizes the original-heuristic
    run).  ``reference_layout`` is the layout the transformation
    committed (see :func:`~repro.guard.sanitizer.sanitize`), and ``jit``
    the trace engine the sanitizer runs on.  In strict mode
    invariant/sanitizer violations raise before ``simulate_fn`` ever sees
    the transformed layout.
    """
    with obs.span("guard.check", seed=seed):
        rt.emit_check("invariants")
        violations = list(
            check_layout(prog, layout, budget_bytes=config.budget_bytes)
        )
        base_layout = baseline_layout or original_layout(prog)
        if not violations:
            # Only a structurally sound layout can be interpreted; an
            # unsound one is already condemned and tracing it may crash.
            rt.emit_check("sanitizer")
            violations.extend(
                sanitize(
                    prog, layout, base_layout,
                    seed=seed, limit=config.sanitize_limit,
                    reference_layout=reference_layout, jit=jit,
                )
            )
        for violation in violations:
            rt.emit_violation(violation, run_key)
        if violations:
            if config.strict:
                _raise_strict(violations)
            # warn mode: the transformed layout is unsound — roll back to
            # the original layout rather than committing tainted numbers.
            base_stats = (
                baseline_stats
                if baseline_stats is not None
                else simulate_fn(prog, base_layout)
            )
            rt.emit_rollback(
                base_stats.miss_rate_pct, float("nan"), run_key
            )
            return (
                GuardReport(
                    status=STATUS_ROLLED_BACK,
                    violations=violations,
                    dropped=list(dropped),
                    baseline_miss_pct=base_stats.miss_rate_pct,
                ),
                base_stats,
            )

        rt.emit_check("regression")
        base_stats = (
            baseline_stats
            if baseline_stats is not None
            else simulate_fn(prog, base_layout)
        )
        padded_stats = simulate_fn(prog, layout)
        regression = regression_violation(
            base_stats, padded_stats, config.epsilon_pct
        )
        if regression is not None:
            rt.emit_violation(regression, run_key)
            rt.emit_rollback(
                base_stats.miss_rate_pct, padded_stats.miss_rate_pct, run_key
            )
            return (
                GuardReport(
                    status=STATUS_ROLLED_BACK,
                    violations=[regression],
                    dropped=list(dropped),
                    baseline_miss_pct=base_stats.miss_rate_pct,
                    padded_miss_pct=padded_stats.miss_rate_pct,
                ),
                base_stats,
            )
        return (
            GuardReport(
                status=STATUS_PASSED,
                violations=[],
                dropped=list(dropped),
                baseline_miss_pct=base_stats.miss_rate_pct,
                padded_miss_pct=padded_stats.miss_rate_pct,
            ),
            padded_stats,
        )
