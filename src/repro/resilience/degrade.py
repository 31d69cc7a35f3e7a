"""Degraded answers: estimator-backed responses for browned-out simulate.

When the serve tier cannot simulate — the engine pool is quarantined
behind open breakers, or the admission ladder has entered brownout —
simulate-class requests do not have to die with a 503.  The padding
heuristics are cheap, in-process, and deterministic, and
:func:`~repro.extensions.estimate.estimate_conflicts` predicts the
severe-conflict miss rate without running the cache simulator at all.
This module packages those into response records shaped like their
full-fidelity counterparts, with three honest differences:

* ``"status": "degraded"`` and ``"degraded": true`` — the caller can
  tell at a glance that no simulation happened;
* stats fields carry the *estimate*, not simulated counts;
* ``"error_bound_pct"`` — the conflict-attributable share of the
  estimate (everything above the streaming floor), i.e. how far the
  model can be off if it mis-classified every conflicting pair.

Brownout is not always inexact, though: when the analytic miss
predictor (:mod:`repro.analysis.predict`) can prove the program
analyzable, the record is *upgraded* to its closed-form counts —
``"status": "analytic"``, ``"degraded": false, "tier": "analytic"``,
real ``stats``, ``error_bound_pct`` 0 — indistinguishable from a
simulated answer because it is exact by construction.  When the
predictor bails out, the estimator answers as before and the record's
``"bailout"`` field says why exactness was unavailable.

Handlers here are pure (no HTTP, no service state) so the unit tests
drive them directly, mirroring :mod:`repro.serve.handlers`.
"""

from __future__ import annotations

from repro.extensions.estimate import ConflictEstimate, estimate_conflicts

#: replay budget for the analytic upgrade: small enough that a
#: browned-out service never burns simulation-scale time in the
#: predictor, large enough to cover the folded replays of real kernels.
PREDICT_BUDGET = 1 << 20


def estimate_record(est: ConflictEstimate) -> dict:
    """JSON-safe rendering of one conflict estimate."""
    return {
        "miss_rate_pct": round(est.miss_rate_pct, 4),
        "streaming_floor_pct": round(est.streaming_floor_pct, 4),
        "conflicting_refs": est.conflicting_refs,
        "total_refs": est.total_refs,
        "severe": est.severe,
    }


def _layout_for(prog, heuristic: str, cache, m_lines: int):
    """The layout the requested heuristic would produce, no simulation."""
    from repro.experiments.runner import HEURISTICS
    from repro.padding.common import PadParams
    from repro.padding.drivers import original

    if heuristic == "original":
        result = original(prog)
    else:
        params = PadParams.for_cache(cache, m_lines=m_lines)
        result = HEURISTICS[heuristic](prog, params)
    return result.prog, result.layout


def _analytic_simulate_source(request, prog, baseline) -> tuple:
    """Try the exact analytic upgrade for an inline-source request.

    Returns ``(response, None)`` on success — shaped like the
    full-fidelity :func:`~repro.serve.handlers.handle_simulate_source`
    answer, since the counts are identical — or ``(None, reason)`` when
    the predictor bailed out.  Guarded transformed requests never
    upgrade: guard verdicts need the simulation pipeline.
    """
    from repro.analysis.predict import predict_misses
    from repro.guard import runtime as guard_runtime
    from repro.serve import handlers

    if (
        guard_runtime.active_config() is not None
        and request.heuristic != "original"
    ):
        return None, None
    before = predict_misses(
        prog, baseline.layout, request.cache, budget=PREDICT_BUDGET
    )
    if not before.analyzable:
        return None, before.reason
    response = {
        "program": prog.name,
        "heuristic": request.heuristic,
        "cache": request.cache.describe(),
        "status": "analytic",
        "degraded": False,
        "tier": "analytic",
        "error_bound_pct": 0.0,
        "original": handlers.stats_record(before.prediction.stats),
    }
    if request.heuristic == "original":
        return response, None
    padded_prog, layout = _layout_for(
        prog, request.heuristic, request.cache, request.m_lines
    )
    after = predict_misses(
        padded_prog, layout, request.cache, budget=PREDICT_BUDGET
    )
    if not after.analyzable:
        return None, after.reason
    response["padded"] = handlers.stats_record(after.prediction.stats)
    response["improvement_pct"] = round(
        before.prediction.stats.miss_rate_pct
        - after.prediction.stats.miss_rate_pct,
        4,
    )
    return response, None


def degraded_simulate_source(request) -> dict:
    """Estimator-backed answer for an inline-source simulate request.

    Shaped like :func:`repro.serve.handlers.handle_simulate_source`,
    with estimates where the simulated stats would be — unless the
    analytic predictor can answer exactly, in which case the record is
    the upgraded full-fidelity shape (``degraded: false``,
    ``tier: "analytic"``).
    """
    from repro.frontend import parse_program
    from repro.padding.drivers import original

    prog = parse_program(request.source, params=request.params or None)
    baseline = original(prog)
    analytic, bailout = _analytic_simulate_source(request, prog, baseline)
    if analytic is not None:
        return analytic
    before = estimate_conflicts(prog, baseline.layout, request.cache)
    response = {
        "program": prog.name,
        "heuristic": request.heuristic,
        "cache": request.cache.describe(),
        "status": "degraded",
        "degraded": True,
        "original": {"estimate": estimate_record(before)},
        "error_bound_pct": round(before.error_bound_pct, 4),
    }
    if bailout is not None:
        response["bailout"] = bailout
    if request.heuristic == "original":
        return response
    padded_prog, layout = _layout_for(
        prog, request.heuristic, request.cache, request.m_lines
    )
    after = estimate_conflicts(padded_prog, layout, request.cache)
    response["padded"] = {"estimate": estimate_record(after)}
    response["improvement_pct"] = round(
        before.miss_rate_pct - after.miss_rate_pct, 4
    )
    response["error_bound_pct"] = round(
        max(before.error_bound_pct, after.error_bound_pct), 4
    )
    return response


def degraded_run_record(run_request, cached_stats=None, runner=None) -> dict:
    """Estimator-backed record for one benchmark run request.

    Shaped like :func:`repro.serve.handlers.outcome_record`.  When the
    memo tier already holds an exact answer pass it as ``cached_stats``
    — exact beats estimated even in brownout, and the record keeps the
    ``cached`` status so callers see no degradation happened.  With a
    ``runner`` the analytic predictor is consulted next (through
    :meth:`~repro.experiments.runner.Runner.analytic_lookup`, so
    truncation and padding match the real run exactly): analyzable
    requests upgrade to exact closed-form stats instead of estimates.
    """
    from repro.serve import handlers

    if cached_stats is not None:
        return {
            "program": run_request.program,
            "heuristic": run_request.heuristic,
            "size": run_request.size,
            "status": "cached",
            "attempts": 0,
            "stats": handlers.stats_record(cached_stats),
        }
    bailout = None
    if runner is not None:
        stats = runner.analytic_lookup(run_request, budget=PREDICT_BUDGET)
        if stats is not None:
            return {
                "program": run_request.program,
                "heuristic": run_request.heuristic,
                "size": run_request.size,
                "status": "analytic",
                "degraded": False,
                "tier": "analytic",
                "attempts": 0,
                "stats": handlers.stats_record(stats),
                "error_bound_pct": 0.0,
            }
        bailout = runner.predict_request(
            run_request, budget=PREDICT_BUDGET
        ).reason
    from repro.bench.suites import get_spec

    prog = get_spec(run_request.program).build(run_request.size)
    prog, layout = _layout_for(
        prog, run_request.heuristic, run_request.pad_cache, run_request.m_lines
    )
    est = estimate_conflicts(prog, layout, run_request.cache)
    record = {
        "program": run_request.program,
        "heuristic": run_request.heuristic,
        "size": run_request.size,
        "status": "degraded",
        "degraded": True,
        "attempts": 0,
        "stats": None,
        "estimate": estimate_record(est),
        "error_bound_pct": round(est.error_bound_pct, 4),
    }
    if bailout is not None:
        record["bailout"] = bailout
    return record
