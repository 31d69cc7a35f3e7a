"""Experiment runner: program x heuristic x cache -> cache statistics.

The evaluation figures re-simulate the same (program, layout, cache)
combinations many times over, so results are memoized in-process keyed by
everything that determines them (program name + problem size + truncation
+ heuristic + its parameters + cache geometry + trace seed).

Heuristics are addressed by name so figures and benchmarks can enumerate
them; see :data:`HEURISTICS`.

Persistence goes through :class:`repro.engine.store.CrashSafeStore`
(atomic SQLite commits, per-row checksums, quarantine-and-continue), so
a killed sweep resumes from its completed runs and a corrupted store
loses only the damaged rows.  For parallel, fault-tolerant execution of many
requests see :mod:`repro.engine`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro.bench.suites import get_spec
from repro.cache.config import CacheConfig, base_cache
from repro.cache.fastsim import make_simulator
from repro.cache.sim import ReferenceCache
from repro.cache.stats import CacheStats
from repro.errors import ConfigError, PredictError
from repro.guard import runtime as guard_runtime
from repro.ir.program import Program
from repro.jit import make_interpreter, resolve_mode
from repro.layout.layout import MemoryLayout, original_layout
from repro.obs import runtime as obs
from repro.padding import drivers
from repro.padding.common import PadParams, PaddingResult
from repro.trace.env import DataEnv
from repro.trace.interpreter import truncate_outer_loops

HEURISTICS: Dict[str, Callable[..., PaddingResult]] = {
    "original": lambda prog, params=None: drivers.original(prog),
    "pad": drivers.pad,
    "padlite": drivers.padlite,
    "pad-nolin": lambda prog, params=None: drivers.pad(prog, params, use_linpad=False),
    "padlite-nolin": lambda prog, params=None: drivers.padlite(
        prog, params, use_linpad=False
    ),
    "interpad": drivers.interpad_only,
    "interpadlite": drivers.interpadlite_only,
    "linpad1+interpadlite": lambda prog, params=None: drivers.linpad_plus_interpadlite(
        prog, 1, params
    ),
    "linpad2+interpadlite": lambda prog, params=None: drivers.linpad_plus_interpadlite(
        prog, 2, params
    ),
}

SIMULATORS = ("fast", "reference")
"""Engine choices for :meth:`Runner.run`: the vectorized engines or the
obviously-correct reference simulator (the graceful-degradation target)."""


@dataclass(frozen=True)
class RunRequest:
    """Everything that determines one simulation result."""

    program: str
    size: Optional[int]
    heuristic: str
    cache: CacheConfig
    pad_cache: CacheConfig  # the cache the heuristic targets (usually == cache)
    m_lines: int
    max_outer: Optional[int]
    seed: int


def request_key(request: RunRequest) -> str:
    """Stable string key for a request (persistent store / journal id)."""
    cache, pad_cache = request.cache, request.pad_cache
    return "|".join(
        str(part)
        for part in (
            request.program, request.size, request.heuristic,
            cache.size_bytes, cache.line_bytes, cache.associativity,
            cache.write_allocate, cache.write_back,
            pad_cache.size_bytes, pad_cache.line_bytes,
            pad_cache.associativity,
            request.m_lines, request.max_outer, request.seed,
        )
    )


def pack_record(stats: CacheStats, status: str = "ok") -> dict:
    """Store-entry payload for one result (stats + how it was obtained)."""
    return {"stats": dataclasses.asdict(stats), "status": status}


def unpack_record(record: dict) -> Tuple[CacheStats, str]:
    """Invert :func:`pack_record`; also reads legacy flat stats dicts.

    Raises ``TypeError``/``KeyError`` on malformed payloads — callers
    treat that as a corrupt entry.
    """
    if isinstance(record.get("stats"), dict):
        payload, status = record["stats"], record.get("status", "ok")
    else:
        payload, status = record, "ok"
    return CacheStats(**payload), status


class Runner:
    """Memoizing simulation driver.

    ``store`` plugs a durable result store (anything with ``get``/``put``
    of packed records keyed by :func:`request_key`, i.e. a
    :class:`repro.engine.store.CrashSafeStore`) in below the in-memory
    memo: lookups fall through memory → store, and answers new to the
    memo are written through to the store, so repeated invocations skip
    already-simulated combinations.

    ``jit`` is the trace-engine policy (``"on"``/``"off"``/``"auto"``,
    see :mod:`repro.jit`).  It is execution policy, not part of the memo
    key: every mode emits the identical address stream, so results cache
    and compare across modes.

    ``predict`` is the analytic tier-0 policy (``"analytic"``/``"auto"``/
    ``"sim"``, see :mod:`repro.analysis.predict`).  In ``auto`` the
    static miss predictor is consulted before every memo tier and the
    simulator; when the program is analyzable its closed-form counts —
    exact by construction — are served without simulating.  ``analytic``
    *requires* the predictor (a bailout raises
    :class:`~repro.errors.PredictError`); ``sim`` (default) never
    consults it.  Like ``jit`` it is execution policy, not part of the
    memo key: analytic answers equal simulated ones bit for bit.
    """

    #: recognised analytic tier-0 policies
    PREDICT_MODES = ("analytic", "auto", "sim")

    def __init__(self, store=None, jit: str = "auto", predict: str = "sim"):
        #: trace-engine policy; mutable so engine workers can follow the
        #: per-task mode their parent sends
        self.jit = resolve_mode(jit)
        if predict not in self.PREDICT_MODES:
            raise ConfigError(
                f"unknown predict mode {predict!r}; known: "
                f"{self.PREDICT_MODES}"
            )
        #: analytic tier-0 policy; mutable like :attr:`jit`
        self.predict = predict
        #: where the most recent :meth:`run` answer came from
        #: (``analytic``/``memory``/``sqlite``/``sim``, or None)
        self.last_tier: Optional[str] = None
        self._predictions: Dict[Tuple[RunRequest, Optional[int]], object] = {}
        self._stats: Dict[RunRequest, CacheStats] = {}
        self._programs: Dict[Tuple[str, Optional[int]], Program] = {}
        self._paddings: Dict[Tuple, PaddingResult] = {}
        # the optional durable result store under the in-memory memo
        self._store = store
        self._guard_reports: Dict[RunRequest, object] = {}
        #: guard verdict of the most recent :meth:`run` (None = unguarded)
        self.last_guard = None
        #: chaos-test hook: ``fn(prog, layout)`` mutating a *copy* of the
        #: layout right before simulation (see repro.engine.faults)
        self.layout_saboteur = None

    # -- building blocks ----------------------------------------------------

    def program(self, name: str, size: Optional[int] = None) -> Program:
        """Build (and cache) a benchmark program."""
        key = (name, size)
        if key not in self._programs:
            self._programs[key] = get_spec(name).build(size)
        return self._programs[key]

    def padding(
        self,
        name: str,
        heuristic: str,
        size: Optional[int] = None,
        pad_cache: Optional[CacheConfig] = None,
        m_lines: int = 4,
    ) -> PaddingResult:
        """Run (and cache) a padding heuristic on a benchmark."""
        if heuristic not in HEURISTICS:
            raise ConfigError(
                f"unknown heuristic {heuristic!r}; known: {sorted(HEURISTICS)}"
            )
        pad_cache = pad_cache or base_cache()
        key = (name, size, heuristic, pad_cache, m_lines)
        if key not in self._paddings:
            prog = self.program(name, size)
            params = PadParams.for_cache(pad_cache, m_lines=m_lines)
            self._paddings[key] = HEURISTICS[heuristic](prog, params)
        return self._paddings[key]

    # -- simulation -----------------------------------------------------------

    def request_for(
        self,
        name: str,
        heuristic: str = "original",
        cache: Optional[CacheConfig] = None,
        size: Optional[int] = None,
        pad_cache: Optional[CacheConfig] = None,
        m_lines: int = 4,
        max_outer: Union[int, None, str] = "auto",
        seed: int = 12345,
    ) -> RunRequest:
        """The fully-resolved :class:`RunRequest` :meth:`run` would execute."""
        cache = cache or base_cache()
        pad_cache = pad_cache or cache
        spec = get_spec(name)
        if max_outer == "auto":
            max_outer = spec.max_outer
        return RunRequest(
            program=name,
            size=size,
            heuristic=heuristic,
            cache=cache,
            pad_cache=pad_cache,
            m_lines=m_lines,
            max_outer=max_outer,
            seed=seed,
        )

    def run(
        self,
        name: str,
        heuristic: str = "original",
        cache: Optional[CacheConfig] = None,
        size: Optional[int] = None,
        pad_cache: Optional[CacheConfig] = None,
        m_lines: int = 4,
        max_outer: Union[int, None, str] = "auto",
        seed: int = 12345,
        simulator: str = "fast",
    ) -> CacheStats:
        """Miss statistics for one benchmark under one heuristic and cache.

        ``pad_cache`` is the configuration the *heuristic* targets; it
        defaults to ``cache``, but associativity studies (Figures 9/10)
        pad for the direct-mapped base cache while simulating others.
        ``max_outer="auto"`` applies the benchmark's registered truncation.
        ``simulator`` picks the engine (see :data:`SIMULATORS`); both are
        exact, so results cache under the same key.
        """
        request = self.request_for(
            name, heuristic, cache, size, pad_cache, m_lines, max_outer, seed
        )
        if self.predict != "sim":
            # Tier 0: closed-form miss counts, consulted before the memo
            # tiers.  Analytic answers are exact, so they are also primed
            # into the memo and, when new to it, written through to the
            # durable store.
            known = request in self._stats
            analytic = self.analytic_lookup(request)
            if analytic is not None:
                if not known:
                    self._write_through(request, analytic, "analytic")
                return analytic
            if self.predict == "analytic":
                # forced analytic: surface the bailout report instead of
                # silently falling back to simulation
                if (
                    guard_runtime.active_config() is not None
                    and heuristic != "original"
                ):
                    raise PredictError(
                        "predict mode 'analytic' cannot run under an "
                        "active transformation guard: guard verdicts "
                        "need the simulation pipeline"
                    )
                self.predict_request(request).require()
        cached = self.memo_lookup(request)
        if cached is not None:
            return cached
        self.last_tier = "sim"
        stats, report = self.execute_guarded(request, simulator=simulator)
        self._stats[request] = stats
        if report is not None:
            self._guard_reports[request] = report
        self.last_guard = report
        self._write_through(request, stats, report.status if report else "ok")
        return stats

    def _write_through(
        self, request: RunRequest, stats: CacheStats, status: str
    ) -> None:
        if self._store is not None:
            self._store.put(request_key(request), pack_record(stats, status))

    def execute(self, request: RunRequest, simulator: str = "fast") -> CacheStats:
        """Simulate one resolved request, bypassing every result cache."""
        stats, _report = self.execute_guarded(request, simulator=simulator)
        return stats

    def execute_guarded(
        self, request: RunRequest, simulator: str = "fast"
    ):
        """Simulate one request under the active guard policy.

        Returns ``(stats, guard_report)`` where the report is ``None``
        when no guard is active (or for the ``original`` heuristic,
        which transforms nothing).  With a guard active the layout
        invariants, the semantic sanitizer and the miss-rate regression
        guard all run; a regression (or, in warn mode, a corrupted
        layout) rolls the run back to the original layout's stats and
        the report says so.  Strict mode raises
        :class:`~repro.errors.GuardViolationError` before the corrupted
        layout reaches the simulator.
        """
        if simulator not in SIMULATORS:
            raise ConfigError(
                f"unknown simulator {simulator!r}; known: {SIMULATORS}"
            )
        with obs.span(
            "runner.execute",
            program=request.program, heuristic=request.heuristic,
            simulator=simulator,
        ):
            result = self.padding(
                request.program, request.heuristic, request.size,
                request.pad_cache, request.m_lines,
            )
            prog = result.prog
            layout = result.layout
            if request.max_outer is not None:
                prog = truncate_outer_loops(prog, request.max_outer)
                layout = _rebind_layout(layout, prog)
            reference = layout  # the layout the transformation committed
            if self.layout_saboteur is not None and request.heuristic != "original":
                # Damage only transformed layouts, right before simulation:
                # the original heuristic is the rollback baseline and must
                # stay trustworthy, and the memoized padding (`reference`)
                # must stay pristine so the sanitizer can expose the drift.
                layout = layout.copy()
                self.layout_saboteur(prog, layout)

            def simulate(sim_prog: Program, sim_layout: MemoryLayout) -> CacheStats:
                sim = (
                    make_simulator(request.cache)
                    if simulator == "fast"
                    else ReferenceCache(request.cache)
                )
                env = DataEnv(seed=request.seed)
                interp = make_interpreter(
                    sim_prog, sim_layout, env, jit=self.jit
                )
                for addrs, writes in interp.trace():
                    sim.access_chunk(addrs, writes)
                return sim.stats

            config = guard_runtime.active_config()
            if config is None or request.heuristic == "original":
                return simulate(prog, layout), None

            from repro.guard.core import check_transform

            # The memoized original-heuristic run is both the rollback
            # target and the regression baseline; computing it through
            # self.run shares it across every heuristic on this cache.
            baseline_stats = self.run(
                request.program, "original", request.cache,
                size=request.size, pad_cache=request.pad_cache,
                m_lines=request.m_lines, max_outer=request.max_outer,
                seed=request.seed, simulator=simulator,
            )
            report, stats = check_transform(
                prog, layout, config,
                simulate_fn=simulate,
                baseline_layout=original_layout(prog),
                baseline_stats=baseline_stats,
                seed=request.seed,
                run_key=request_key(request),
                dropped=result.guard.dropped if result.guard else (),
                reference_layout=reference,
                jit=self.jit,
            )
            return stats, report

    def materialize(self, request: RunRequest) -> Tuple[Program, MemoryLayout]:
        """The resolved ``(prog, layout)`` a request would simulate.

        Applies the requested padding heuristic, the benchmark's outer
        truncation, and the layout rebinding — exactly the inputs
        :meth:`execute_guarded` hands the simulator, so static analyses
        (the miss predictor, the degraded estimator) see the same program
        the trace engine would.
        """
        result = self.padding(
            request.program, request.heuristic, request.size,
            request.pad_cache, request.m_lines,
        )
        prog, layout = result.prog, result.layout
        if request.max_outer is not None:
            prog = truncate_outer_loops(prog, request.max_outer)
            layout = _rebind_layout(layout, prog)
        return prog, layout

    def predict_request(self, request: RunRequest, budget: Optional[int] = None):
        """Memoized analytic prediction outcome for a resolved request.

        Returns a :class:`repro.analysis.predict.PredictOutcome`; callers
        check ``.analyzable`` (or ``.require()``).  Outcomes are cached
        per ``(request, budget)`` so repeated consultations — the serve
        micro-batcher peeks here on every eligible request — cost one
        dictionary probe.
        """
        from repro.analysis.predict import predict_misses

        key = (request, budget)
        cached = self._predictions.get(key)
        if cached is not None:
            return cached
        prog, layout = self.materialize(request)
        kwargs = {} if budget is None else {"budget": budget}
        outcome = predict_misses(prog, layout, request.cache, **kwargs)
        self._predictions[key] = outcome
        return outcome

    def analytic_lookup(
        self, request: RunRequest, budget: Optional[int] = None
    ) -> Optional[CacheStats]:
        """Tier 0: exact closed-form stats, or ``None`` on bailout.

        Counts an ``analytic`` memo-tier hit and primes the in-memory
        memo on success.  Guarded transformed runs always return
        ``None`` — guard verdicts (sanitizer, regression rollback) need
        the simulation pipeline.
        """
        if (
            guard_runtime.active_config() is not None
            and request.heuristic != "original"
        ):
            return None
        outcome = self.predict_request(request, budget=budget)
        if not outcome.analyzable:
            return None
        stats = outcome.prediction.stats
        obs.counter_add(
            "repro_runner_memo_hits_total", 1,
            "simulation results served from memory", tier="analytic",
        )
        self.last_tier = "analytic"
        self._stats[request] = stats
        self.last_guard = None
        return stats

    def memo_lookup(self, request: RunRequest) -> Optional[CacheStats]:
        """Memoized stats for a resolved request, or ``None`` on a miss.

        Counts the memo-tier hit (``repro_runner_memo_hits_total``,
        labelled ``memory`` or ``sqlite``) or the miss, and updates
        :attr:`last_guard`, exactly like the front half of :meth:`run`.
        The serve micro-batcher peeks here before dispatching a batch to
        the engine, so repeat requests never re-simulate.
        """
        if request in self._stats:
            obs.counter_add(
                "repro_runner_memo_hits_total", 1,
                "simulation results served from memory", tier="memory",
            )
            self.last_tier = "memory"
            self.last_guard = self._guard_reports.get(request)
            return self._stats[request]
        if self._store is not None:
            record = self._store.get(request_key(request))
            if record is not None:
                try:
                    stats, _status = unpack_record(record)
                except (TypeError, KeyError):
                    stats = None  # unpackable row: fall through and re-run
                if stats is not None:
                    obs.counter_add(
                        "repro_runner_memo_hits_total", 1,
                        "simulation results served from memory",
                        tier="sqlite",
                    )
                    self.last_tier = "sqlite"
                    self._stats[request] = stats
                    self.last_guard = None
                    return stats
        obs.counter_add(
            "repro_runner_memo_misses_total", 1,
            "simulation requests that had to run",
        )
        return None

    def prime(self, request: RunRequest, stats: CacheStats) -> None:
        """Preload one result (e.g. computed by :mod:`repro.engine`)."""
        self._stats[request] = stats

    def miss_rate(self, *args, **kwargs) -> float:
        """Miss rate (percent) convenience wrapper around :meth:`run`."""
        return self.run(*args, **kwargs).miss_rate_pct

    def improvement(
        self,
        name: str,
        heuristic: str,
        baseline: str = "original",
        **kwargs,
    ) -> float:
        """Miss-rate improvement of ``heuristic`` over ``baseline`` in
        percentage points (the paper's Y axis)."""
        return self.miss_rate(name, baseline, **kwargs) - self.miss_rate(
            name, heuristic, **kwargs
        )

    def clear(self) -> None:
        """Drop all cached results."""
        self._stats.clear()
        self._predictions.clear()
        self._programs.clear()
        self._paddings.clear()
        self._guard_reports.clear()
        self.last_guard = None
        self.last_tier = None


def _rebind_layout(layout: MemoryLayout, prog: Program) -> MemoryLayout:
    """Copy a layout onto a (truncated) clone of its program."""
    clone = MemoryLayout(prog)
    for decl in prog.arrays:
        clone.set_dim_sizes(decl.name, layout.dim_sizes(decl.name))
    for decl in prog.decls:
        clone.set_base(decl.name, layout.base(decl.name))
    return clone


DEFAULT_RUNNER = Runner()
"""Shared module-level runner so figures and benchmarks reuse results."""
