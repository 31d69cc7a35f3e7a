"""Declarative campaign specs and their strict validation.

A campaign spec is a JSON object describing a sweep cross-product plus
the execution policy it should run under::

    {"name": "paper-sweep",
     "benchmarks": ["jacobi", "dot", "suite:kernel", "category:stencil"],
     "heuristics": ["original", "pad"],
     "caches": [{"size": "16K", "line": 32, "assoc": 1},
                {"size": "32K", "line": 32, "assoc": 2}],
     "sizes": [null, 256],
     "m_lines": [4],
     "seed": 12345,
     "guard": {"mode": "warn", "epsilon_pct": 0.5},
     "policy": {"retries": 2, "timeout_s": 60.0,
                "backoff_base_s": 0.25, "backoff_cap_s": 30.0,
                "fallback": true}}

Validation mirrors the analysis service's schemas: unknown fields are
rejected (a typo'd field silently ignored is a debugging tarpit), every
field is type-checked one at a time, and every rejection is a
:class:`~repro.errors.UsageError` naming the offending field.

Benchmark *selectors* expand against the registry: a plain name selects
one benchmark, ``suite:<name>`` every benchmark of a suite,
``category:<name>`` every benchmark of a category, and ``all`` the whole
registry.  Expansion is deterministic (registry order, first mention
wins), so the same spec always compiles to the same plan — the property
the content-addressed campaign id depends on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cache.config import CacheConfig, parse_byte_size
from repro.errors import UsageError

#: hard ceiling on the expanded cross-product, whatever the spec asks for
MAX_CAMPAIGN_ITEMS = 65536

_SPEC_FIELDS = (
    "name", "benchmarks", "heuristics", "caches", "sizes", "m_lines",
    "seed", "guard", "policy",
)
_POLICY_FIELDS = (
    "retries", "timeout_s", "backoff_base_s", "backoff_cap_s", "fallback",
    "tier",
)


@dataclass(frozen=True)
class CampaignPolicy:
    """Per-item retry/timeout/backoff policy for one campaign."""

    retries: int = 2               # extra lease attempts after the first
    timeout_s: float = 120.0       # per-lease wall-clock deadline
    backoff_base_s: float = 0.25   # 0 disables waiting (tests)
    backoff_cap_s: float = 30.0
    fallback: bool = True          # degrade to the reference simulator
    tier: str = "sim"              # analytic tier-0 policy workers apply

    def to_record(self) -> Dict[str, object]:
        """JSON-safe form, part of the canonical (addressed) spec."""
        return {
            "retries": self.retries,
            "timeout_s": self.timeout_s,
            "backoff_base_s": self.backoff_base_s,
            "backoff_cap_s": self.backoff_cap_s,
            "fallback": self.fallback,
            "tier": self.tier,
        }


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign: resolved cross-product plus policy."""

    benchmarks: Tuple[str, ...]
    heuristics: Tuple[str, ...]
    caches: Tuple[CacheConfig, ...]
    sizes: Tuple[Optional[int], ...] = (None,)
    m_lines: Tuple[int, ...] = (4,)
    seed: int = 12345
    name: str = "campaign"
    guard: Optional[Dict[str, object]] = None  # GuardConfig record
    policy: CampaignPolicy = field(default_factory=CampaignPolicy)

    def canonical(self) -> Dict[str, object]:
        """JSON-safe, fully-resolved form — the content that is addressed.

        Two specs that expand to the same work under the same policy
        canonicalize identically (selector spelling does not matter);
        any change that alters the work changes the campaign id.
        """
        return {
            "schema": 1,
            "name": self.name,
            "benchmarks": list(self.benchmarks),
            "heuristics": list(self.heuristics),
            "caches": [
                {"size": c.size_bytes, "line": c.line_bytes,
                 "assoc": c.associativity}
                for c in self.caches
            ],
            "sizes": list(self.sizes),
            "m_lines": list(self.m_lines),
            "seed": self.seed,
            "guard": self.guard,
            "policy": self.policy.to_record(),
        }

    @property
    def campaign_id(self) -> str:
        """Content address of the campaign (sha256 of the canonical spec)."""
        blob = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    @property
    def item_count(self) -> int:
        """Size of the cross-product this spec expands to."""
        return (
            len(self.benchmarks) * len(self.heuristics) * len(self.caches)
            * len(self.sizes) * len(self.m_lines)
        )


# -- field-level checkers ----------------------------------------------------


def _require_dict(body, what: str) -> dict:
    if not isinstance(body, dict):
        raise UsageError(
            f"{what}: expected a JSON object, got {type(body).__name__}"
        )
    return body


def _reject_unknown(body: dict, known: Tuple[str, ...], what: str) -> None:
    unknown = sorted(set(body) - set(known))
    if unknown:
        raise UsageError(
            f"{what}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(known)}"
        )


def _string_list(body: dict, name: str, required: bool = False) -> Tuple[str, ...]:
    if name not in body:
        if required:
            raise UsageError(f"missing required field {name!r}")
        return ()
    raw = body[name]
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise UsageError(f"{name}: expected a list of strings")
    if required and not raw:
        raise UsageError(f"{name}: must not be empty")
    return tuple(raw)


def _number(body: dict, name: str, default, minimum=None, integer=False):
    if name not in body or body[name] is None:
        return default
    value = body[name]
    ok = (
        isinstance(value, int) if integer else isinstance(value, (int, float))
    ) and not isinstance(value, bool)
    if not ok:
        kind = "an integer" if integer else "a number"
        raise UsageError(f"{name}: expected {kind}, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise UsageError(f"{name}: must be >= {minimum}, got {value}")
    return value


# -- selector expansion ------------------------------------------------------


def resolve_benchmarks(selectors: Tuple[str, ...]) -> Tuple[str, ...]:
    """Expand benchmark selectors against the registry, in stable order."""
    from repro.bench.suites import ALL_SPECS

    by_name = {spec.name: spec for spec in ALL_SPECS}
    resolved = []
    seen = set()

    def add(name: str) -> None:
        if name not in seen:
            seen.add(name)
            resolved.append(name)

    for selector in selectors:
        if selector == "all":
            for spec in ALL_SPECS:
                add(spec.name)
        elif selector.startswith("suite:"):
            suite = selector[len("suite:"):]
            matches = [s for s in ALL_SPECS if s.suite == suite]
            if not matches:
                known = sorted({s.suite for s in ALL_SPECS})
                raise UsageError(
                    f"benchmarks: unknown suite {suite!r}; known: {known}"
                )
            for spec in matches:
                add(spec.name)
        elif selector.startswith("category:"):
            category = selector[len("category:"):]
            matches = [s for s in ALL_SPECS if s.category == category]
            if not matches:
                known = sorted({s.category for s in ALL_SPECS})
                raise UsageError(
                    f"benchmarks: unknown category {category!r}; known: {known}"
                )
            for spec in matches:
                add(spec.name)
        elif selector in by_name:
            add(selector)
        else:
            raise UsageError(
                f"benchmarks: unknown selector {selector!r} (a benchmark "
                "name, 'suite:<name>', 'category:<name>', or 'all')"
            )
    return tuple(resolved)


# -- spec parsing ------------------------------------------------------------


def _parse_caches(body: dict) -> Tuple[CacheConfig, ...]:
    raw = body.get("caches")
    if raw is None:
        raw = [{}]
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise UsageError("caches: expected a non-empty list of geometries")
    caches = []
    for index, item in enumerate(raw):
        what = f"caches[{index}]"
        item = _require_dict(item, what)
        _reject_unknown(item, ("size", "line", "assoc"), what)
        assoc = item.get("assoc", 1)
        if isinstance(assoc, bool) or not isinstance(assoc, int):
            raise UsageError(f"{what}.assoc: expected an integer")
        caches.append(
            CacheConfig(
                size_bytes=parse_byte_size(
                    item.get("size", "16K"), f"{what}.size"
                ),
                line_bytes=parse_byte_size(
                    item.get("line", 32), f"{what}.line"
                ),
                associativity=assoc,
            )
        )
    return tuple(caches)


def _parse_sizes(body: dict) -> Tuple[Optional[int], ...]:
    raw = body.get("sizes")
    if raw is None:
        return (None,)
    if not isinstance(raw, list) or not raw:
        raise UsageError(
            "sizes: expected a non-empty list of problem sizes "
            "(null = the benchmark's default)"
        )
    sizes = []
    for index, value in enumerate(raw):
        if value is None:
            sizes.append(None)
            continue
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise UsageError(f"sizes[{index}]: expected a positive integer or null")
        sizes.append(value)
    return tuple(sizes)


def _parse_m_lines(body: dict) -> Tuple[int, ...]:
    raw = body.get("m_lines")
    if raw is None:
        return (4,)
    if isinstance(raw, int) and not isinstance(raw, bool):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise UsageError("m_lines: expected an integer or a non-empty list")
    out = []
    for index, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise UsageError(f"m_lines[{index}]: expected a positive integer")
        out.append(value)
    return tuple(out)


def _parse_guard(body: dict) -> Optional[Dict[str, object]]:
    raw = body.get("guard")
    if raw is None:
        return None
    raw = _require_dict(raw, "guard")
    _reject_unknown(raw, ("mode", "epsilon_pct", "budget"), "guard")
    mode = raw.get("mode", "warn")
    if mode not in ("warn", "strict"):
        raise UsageError(f"guard.mode: expected 'warn' or 'strict', got {mode!r}")
    epsilon = _number(raw, "epsilon_pct", 0.5, minimum=0.0)
    budget = raw.get("budget")
    if budget is not None:
        budget = parse_byte_size(budget, "guard.budget")
    from repro.guard.config import GuardConfig

    return GuardConfig(
        mode=mode, epsilon_pct=float(epsilon), budget_bytes=budget
    ).to_record()


def _parse_policy(body: dict) -> CampaignPolicy:
    raw = body.get("policy")
    if raw is None:
        return CampaignPolicy()
    raw = _require_dict(raw, "policy")
    _reject_unknown(raw, _POLICY_FIELDS, "policy")
    fallback = raw.get("fallback", True)
    if not isinstance(fallback, bool):
        raise UsageError("policy.fallback: expected a boolean")
    from repro.experiments.runner import Runner

    tier = raw.get("tier", "sim")
    if tier not in Runner.PREDICT_MODES:
        raise UsageError(
            f"policy.tier: expected one of {list(Runner.PREDICT_MODES)}"
        )
    return CampaignPolicy(
        retries=_number(raw, "retries", 2, minimum=0, integer=True),
        timeout_s=float(_number(raw, "timeout_s", 120.0, minimum=0.001)),
        backoff_base_s=float(_number(raw, "backoff_base_s", 0.25, minimum=0.0)),
        backoff_cap_s=float(_number(raw, "backoff_cap_s", 30.0, minimum=0.0)),
        fallback=fallback,
        tier=tier,
    )


def parse_spec(body) -> CampaignSpec:
    """Validate one decoded campaign spec into a :class:`CampaignSpec`."""
    body = _require_dict(body, "campaign spec")
    _reject_unknown(body, _SPEC_FIELDS, "campaign spec")
    name = body.get("name", "campaign")
    if not isinstance(name, str) or not name:
        raise UsageError("name: expected a non-empty string")
    benchmarks = resolve_benchmarks(
        _string_list(body, "benchmarks", required=True)
    )
    heuristics = _string_list(body, "heuristics", required=True)
    from repro.experiments.runner import HEURISTICS

    for heuristic in heuristics:
        if heuristic not in HEURISTICS:
            raise UsageError(
                f"heuristics: unknown {heuristic!r}; known: "
                f"{sorted(HEURISTICS)}"
            )
    spec = CampaignSpec(
        benchmarks=benchmarks,
        heuristics=heuristics,
        caches=_parse_caches(body),
        sizes=_parse_sizes(body),
        m_lines=_parse_m_lines(body),
        seed=_number(body, "seed", 12345, minimum=0, integer=True),
        name=name,
        guard=_parse_guard(body),
        policy=_parse_policy(body),
    )
    if spec.item_count > MAX_CAMPAIGN_ITEMS:
        raise UsageError(
            f"campaign spec expands to {spec.item_count} items, over the "
            f"{MAX_CAMPAIGN_ITEMS}-item ceiling"
        )
    return spec


def spec_from_file(path) -> CampaignSpec:
    """Load and validate a campaign spec from a JSON file."""
    try:
        with open(path) as fh:
            body = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read campaign spec {path!r}: {exc}") from None
    except ValueError as exc:
        raise UsageError(f"{path}: malformed JSON: {exc}") from None
    return parse_spec(body)
