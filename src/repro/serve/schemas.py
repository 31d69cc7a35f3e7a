"""Request validation and error-body schemas for the analysis service.

Every endpoint's JSON body is validated here into a typed request object
before any work is admitted: unknown fields are rejected (a typo'd field
silently ignored is a debugging tarpit), types are checked one field at
a time, and every rejection is a :class:`~repro.errors.UsageError`
carrying the offending field name — the same taxonomy the CLI maps to
exit code 3.

The service's error bodies are uniform across endpoints::

    {"error": {"type": "FrontendError", "message": "line 3:7: ...",
               "exit_code": 2, "http_status": 422}}

``type`` is the library exception class, ``exit_code`` the code the CLI
would have exited with (see :data:`repro.cli.EXIT_CODES`) and
``http_status`` the mapping below — so a service client and a CLI user
read the same failure the same way.

=====  =========================  ======================================
HTTP   class                      meaning
=====  =========================  ======================================
400    UsageError / ConfigError   malformed body, field, or cache shape
400    LintError                  bad rule selection / lint misuse
400    OptimizeError              bad search knobs (beam, budget, ...)
409    GuardError                 strict-mode guardrail violation
409    CampaignError              campaign cannot start/resume (backlog
                                  full, orchestration disabled, ...)
413    PayloadTooLarge            body over the configured ceiling
422    FrontendError              DSL source does not lex/parse/lower
429    QueueFullError             admission queue full — back off
500    ReproError (other)         unexpected library failure
502    EngineError/WorkerCrashed  the execution engine could not finish
504    RunTimeout                 per-request deadline exceeded
=====  =========================  ======================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cache.config import CacheConfig, parse_byte_size
from repro.errors import (
    CampaignError,
    ConfigError,
    EngineError,
    FrontendError,
    GuardError,
    LintError,
    OptimizeError,
    PayloadTooLarge,
    QueueFullError,
    ReproError,
    RunTimeout,
    StoreCorruption,
    UsageError,
    WorkerCrashed,
)

#: most-specific-first mapping from error class to HTTP status
HTTP_STATUS = (
    (QueueFullError, 429),
    (PayloadTooLarge, 413),
    (RunTimeout, 504),
    (WorkerCrashed, 502),
    (StoreCorruption, 500),
    (EngineError, 502),
    (GuardError, 409),
    (CampaignError, 409),
    (LintError, 400),
    (OptimizeError, 400),
    (FrontendError, 422),
    (UsageError, 400),
    (ConfigError, 400),
    (ReproError, 500),
)

#: hard ceilings a request may not exceed whatever it asks for
MAX_SOURCE_BYTES = 256 * 1024
MAX_BATCH_ITEMS = 256
MAX_TIMEOUT_S = 300.0
MAX_CAMPAIGN_ITEMS_SERVE = 4096


def http_status_for(exc: BaseException) -> int:
    """HTTP status for a library exception (500 for anything unknown)."""
    for klass, status in HTTP_STATUS:
        if isinstance(exc, klass):
            return status
    return 500


def error_body(exc: BaseException) -> dict:
    """The uniform structured error body for one failure."""
    from repro.cli import exit_code_for

    return {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": exit_code_for(exc) if isinstance(exc, ReproError) else 2,
            "http_status": http_status_for(exc),
        }
    }


# -- field-level checkers ----------------------------------------------------


def _require_dict(body) -> dict:
    if not isinstance(body, dict):
        raise UsageError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    return body


def _reject_unknown(body: dict, known: Tuple[str, ...], endpoint: str) -> None:
    unknown = sorted(set(body) - set(known))
    if unknown:
        raise UsageError(
            f"{endpoint}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(known)}"
        )


def _string(body: dict, name: str, default=None, required: bool = False):
    if name not in body:
        if required:
            raise UsageError(f"missing required field {name!r}")
        return default
    value = body[name]
    if not isinstance(value, str):
        raise UsageError(f"{name}: expected a string, got {type(value).__name__}")
    return value


def _integer(body: dict, name: str, default=None, minimum: Optional[int] = None):
    if name not in body or body[name] is None:
        return default
    value = body[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(
            f"{name}: expected an integer, got {type(value).__name__}"
        )
    if minimum is not None and value < minimum:
        raise UsageError(f"{name}: must be >= {minimum}, got {value}")
    return value


def _boolean(body: dict, name: str, default: bool = False) -> bool:
    if name not in body:
        return default
    value = body[name]
    if not isinstance(value, bool):
        raise UsageError(
            f"{name}: expected a boolean, got {type(value).__name__}"
        )
    return value


def _params(body: dict, name: str = "params") -> Dict[str, int]:
    raw = body.get(name)
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise UsageError(f"{name}: expected an object of NAME -> integer")
    out: Dict[str, int] = {}
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise UsageError(
                f"{name}.{key}: expected an integer, got {type(value).__name__}"
            )
        out[str(key)] = value
    return out


def parse_cache(body: dict, name: str = "cache") -> CacheConfig:
    """Build the cache geometry a request targets (default 16K/32/1)."""
    raw = body.get(name)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise UsageError(f"{name}: expected an object with size/line/assoc")
    _reject_unknown(raw, ("size", "line", "assoc"), name)
    size = parse_byte_size(raw.get("size", "16K"), f"{name}.size")
    line = parse_byte_size(raw.get("line", 32), f"{name}.line")
    assoc = raw.get("assoc", 1)
    if isinstance(assoc, bool) or not isinstance(assoc, int):
        raise UsageError(f"{name}.assoc: expected an integer")
    return CacheConfig(size_bytes=size, line_bytes=line, associativity=assoc)


def _source(body: dict, required: bool = True) -> Optional[str]:
    source = _string(body, "source", required=required)
    if source is not None and len(source.encode()) > MAX_SOURCE_BYTES:
        raise PayloadTooLarge(
            f"source: {len(source.encode())} bytes exceeds the "
            f"{MAX_SOURCE_BYTES}-byte kernel ceiling"
        )
    return source


def _heuristic(body: dict, default: str = "pad") -> str:
    from repro.experiments.runner import HEURISTICS

    name = _string(body, "heuristic", default=default)
    if name not in HEURISTICS:
        raise UsageError(
            f"heuristic: unknown {name!r}; known: {sorted(HEURISTICS)}"
        )
    return name


def _timeout(body: dict, default: Optional[float]) -> Optional[float]:
    if "timeout_s" not in body or body["timeout_s"] is None:
        return default
    value = body["timeout_s"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError("timeout_s: expected a number of seconds")
    if not 0 < value <= MAX_TIMEOUT_S:
        raise UsageError(
            f"timeout_s: must be in (0, {MAX_TIMEOUT_S:.0f}], got {value}"
        )
    return float(value)


# -- typed requests ----------------------------------------------------------


@dataclass(frozen=True)
class PadRequest:
    """POST /v1/pad — pad one DSL kernel, report decisions and layout."""

    source: str
    cache: CacheConfig
    heuristic: str = "pad"
    m_lines: int = 4
    params: Dict[str, int] = field(default_factory=dict)
    lint: bool = False
    timeout_s: Optional[float] = None


@dataclass(frozen=True)
class OptimizeRequest:
    """POST /v1/optimize — joint inter/intra pad search for one kernel."""

    source: str
    cache: CacheConfig
    heuristic: str = "pad"
    m_lines: int = 4
    beam: int = 8
    budget: int = 64
    objective: str = "miss"
    params: Dict[str, int] = field(default_factory=dict)
    timeout_s: Optional[float] = None


@dataclass(frozen=True)
class LintRequest:
    """POST /v1/lint — statically analyze one DSL kernel."""

    source: str
    cache: CacheConfig
    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    params: Dict[str, int] = field(default_factory=dict)
    timeout_s: Optional[float] = None


@dataclass(frozen=True)
class SimulateRequest:
    """POST /v1/simulate — miss rates for one kernel or benchmark.

    Exactly one of ``source`` (inline DSL) or ``program`` (registered
    benchmark name) selects the kernel.  Benchmark requests ride the
    engine micro-batcher and the runner's memo tiers; source requests
    are simulated in-process against their own memo.
    """

    cache: CacheConfig
    source: Optional[str] = None
    program: Optional[str] = None
    heuristic: str = "pad"
    size: Optional[int] = None
    m_lines: int = 4
    params: Dict[str, int] = field(default_factory=dict)
    timeout_s: Optional[float] = None


@dataclass(frozen=True)
class RunBatchRequest:
    """POST /v1/run — a benchmark sweep through the warm engine pool."""

    items: Tuple[dict, ...]
    cache: CacheConfig
    timeout_s: Optional[float] = None


@dataclass(frozen=True)
class CampaignSubmitRequest:
    """POST /v1/campaign — launch (or attach to) a campaign."""

    spec: object  # repro.campaign.spec.CampaignSpec
    allow_partial: bool = False


def validate_campaign(body) -> CampaignSubmitRequest:
    """Typed ``/v1/campaign`` request: a campaign spec plus options.

    The spec itself is validated by :func:`repro.campaign.spec.parse_spec`
    (same strict unknown-field rejection); the service additionally caps
    the expanded cross-product at :data:`MAX_CAMPAIGN_ITEMS_SERVE` —
    bigger campaigns belong on the CLI, not behind an HTTP endpoint.
    """
    from repro.campaign.spec import parse_spec

    body = _require_dict(body)
    _reject_unknown(body, ("spec", "allow_partial"), "/v1/campaign")
    if "spec" not in body:
        raise UsageError("missing required field 'spec' (a campaign spec)")
    spec = parse_spec(body["spec"])
    if spec.item_count > MAX_CAMPAIGN_ITEMS_SERVE:
        raise PayloadTooLarge(
            f"campaign expands to {spec.item_count} items, over the "
            f"service's {MAX_CAMPAIGN_ITEMS_SERVE}-item ceiling "
            "(run it with 'repro campaign run' instead)"
        )
    return CampaignSubmitRequest(
        spec=spec,
        allow_partial=_boolean(body, "allow_partial"),
    )


def validate_pad(body) -> PadRequest:
    """Typed ``/v1/pad`` request from a decoded JSON body."""
    body = _require_dict(body)
    _reject_unknown(
        body,
        ("source", "cache", "heuristic", "m_lines", "params", "lint",
         "timeout_s"),
        "/v1/pad",
    )
    return PadRequest(
        source=_source(body),
        cache=parse_cache(body),
        heuristic=_heuristic(body),
        m_lines=_integer(body, "m_lines", default=4, minimum=1),
        params=_params(body),
        lint=_boolean(body, "lint"),
        timeout_s=_timeout(body, None),
    )


#: service-side ceilings on the optimize search knobs — a giant beam is
#: a CPU-burn vector through an otherwise-cheap endpoint
MAX_OPTIMIZE_BEAM = 64
MAX_OPTIMIZE_BUDGET = 512


def validate_optimize(body) -> OptimizeRequest:
    """Typed ``/v1/optimize`` request from a decoded JSON body."""
    from repro.optimize import OBJECTIVES

    body = _require_dict(body)
    _reject_unknown(
        body,
        ("source", "cache", "heuristic", "m_lines", "beam", "budget",
         "objective", "params", "timeout_s"),
        "/v1/optimize",
    )
    beam = _integer(body, "beam", default=8, minimum=1)
    if beam > MAX_OPTIMIZE_BEAM:
        raise UsageError(
            f"beam: must be <= {MAX_OPTIMIZE_BEAM}, got {beam}"
        )
    budget = _integer(body, "budget", default=64, minimum=1)
    if budget > MAX_OPTIMIZE_BUDGET:
        raise UsageError(
            f"budget: must be <= {MAX_OPTIMIZE_BUDGET}, got {budget}"
        )
    objective = _string(body, "objective", default="miss")
    if objective not in OBJECTIVES:
        raise UsageError(
            f"objective: unknown {objective!r}; known: {list(OBJECTIVES)}"
        )
    return OptimizeRequest(
        source=_source(body),
        cache=parse_cache(body),
        heuristic=_heuristic(body),
        m_lines=_integer(body, "m_lines", default=4, minimum=1),
        beam=beam,
        budget=budget,
        objective=objective,
        params=_params(body),
        timeout_s=_timeout(body, None),
    )


def validate_lint(body) -> LintRequest:
    """Typed ``/v1/lint`` request from a decoded JSON body."""
    body = _require_dict(body)
    _reject_unknown(
        body,
        ("source", "cache", "select", "ignore", "params", "timeout_s"),
        "/v1/lint",
    )

    def selectors(name: str) -> Tuple[str, ...]:
        raw = body.get(name)
        if raw is None:
            return ()
        if isinstance(raw, str):
            raw = [part.strip() for part in raw.split(",") if part.strip()]
        if not isinstance(raw, list) or not all(
            isinstance(item, str) for item in raw
        ):
            raise UsageError(f"{name}: expected a list of rule IDs/families")
        return tuple(raw)

    return LintRequest(
        source=_source(body),
        cache=parse_cache(body),
        select=selectors("select"),
        ignore=selectors("ignore"),
        params=_params(body),
        timeout_s=_timeout(body, None),
    )


def validate_simulate(body) -> SimulateRequest:
    """Typed ``/v1/simulate`` request (source xor benchmark)."""
    body = _require_dict(body)
    _reject_unknown(
        body,
        ("source", "program", "cache", "heuristic", "size", "m_lines",
         "params", "timeout_s"),
        "/v1/simulate",
    )
    source = _source(body, required=False)
    program = _string(body, "program")
    if (source is None) == (program is None):
        raise UsageError(
            "/v1/simulate: exactly one of 'source' (inline DSL) or "
            "'program' (registered benchmark) is required"
        )
    if program is not None:
        from repro.bench.suites import get_spec

        try:
            get_spec(program)
        except ReproError as exc:
            raise UsageError(f"program: {exc}") from None
    return SimulateRequest(
        cache=parse_cache(body),
        source=source,
        program=program,
        heuristic=_heuristic(body),
        size=_integer(body, "size", minimum=1),
        m_lines=_integer(body, "m_lines", default=4, minimum=1),
        params=_params(body),
        timeout_s=_timeout(body, None),
    )


def validate_run(body) -> RunBatchRequest:
    """Typed ``/v1/run`` sweep request; every item is checked."""
    body = _require_dict(body)
    _reject_unknown(body, ("items", "cache", "timeout_s"), "/v1/run")
    raw_items = body.get("items")
    if not isinstance(raw_items, list) or not raw_items:
        raise UsageError("items: expected a non-empty list of run items")
    if len(raw_items) > MAX_BATCH_ITEMS:
        raise PayloadTooLarge(
            f"items: {len(raw_items)} items exceeds the "
            f"{MAX_BATCH_ITEMS}-item ceiling"
        )
    items = []
    for index, item in enumerate(raw_items):
        if not isinstance(item, dict):
            raise UsageError(f"items[{index}]: expected an object")
        _reject_unknown(
            item, ("program", "heuristic", "size", "m_lines"),
            f"items[{index}]",
        )
        try:
            program = _string(item, "program", required=True)
        except UsageError as exc:
            raise UsageError(f"items[{index}]: {exc}") from None
        from repro.bench.suites import get_spec

        try:
            get_spec(program)
        except ReproError as exc:
            raise UsageError(f"items[{index}].program: {exc}") from None
        items.append(
            {
                "program": program,
                "heuristic": _heuristic(item),
                "size": _integer(item, "size", minimum=1),
                "m_lines": _integer(item, "m_lines", default=4, minimum=1),
            }
        )
    return RunBatchRequest(
        items=tuple(items),
        cache=parse_cache(body),
        timeout_s=_timeout(body, None),
    )
