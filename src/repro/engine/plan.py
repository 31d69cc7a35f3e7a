"""Figure planning: turn experiment modules into engine request lists.

Every figure module drives a :class:`~repro.experiments.runner.Runner`;
:class:`PlanningRunner` substitutes for it and *records* the requests a
figure would simulate instead of simulating them.  :func:`run_figures`
is the ``repro run-all`` pipeline:

1. plan  — replay each figure's ``compute`` against a PlanningRunner;
2. execute — push the deduplicated requests through the
   :class:`~repro.engine.core.ExperimentEngine` (parallel, fault-tolerant,
   resumable);
3. render — replay ``compute`` against a runner primed with the engine's
   results (pure cache hits) and render the figures.

A figure whose runs partially failed renders as a placeholder line rather
than silently re-simulating (or fabricating) the missing data.
"""

from __future__ import annotations

import inspect
import pathlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cache.stats import CacheStats
from repro.engine.core import EngineConfig, ExperimentEngine, RunOutcome
from repro.engine.journal import NullJournal, RunJournal
from repro.engine.store import CrashSafeStore
from repro.errors import ConfigError, EngineError
from repro.experiments.runner import Runner, RunRequest, request_key
from repro.guard import runtime as guard_runtime
from repro.obs import runtime as obs

DEFAULT_FIGURES = (
    "table2", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15",
)
"""The default ``run-all`` set: every non-sweep evaluation figure."""

STORE_FILENAME = "runner_cache.db"
JOURNAL_FILENAME = "journal.jsonl"


class PlanningRunner(Runner):
    """Records the requests a figure would simulate, without simulating.

    ``run`` returns empty stats (figures only combine the numbers, and the
    planning pass discards their output); ``padding`` stays real, so
    compile-time-only figures like Table 2 still work against it.
    """

    def __init__(self):
        super().__init__()
        self.requests: List[RunRequest] = []
        self._seen = set()

    def run(self, name, heuristic="original", cache=None, size=None,
            pad_cache=None, m_lines=4, max_outer="auto", seed=12345,
            simulator="fast"):
        """Record the request and return empty placeholder stats."""
        request = self.request_for(
            name, heuristic, cache, size, pad_cache, m_lines, max_outer, seed
        )
        if request not in self._seen:
            self._seen.add(request)
            self.requests.append(request)
        return CacheStats()


class PrimedRunner(Runner):
    """Serves only pre-loaded results; a miss raises instead of simulating.

    Used for the render phase so a run that *failed* in the engine cannot
    sneak back in as an unbounded in-process simulation.
    """

    def run(self, name, heuristic="original", cache=None, size=None,
            pad_cache=None, m_lines=4, max_outer="auto", seed=12345,
            simulator="fast"):
        """Serve the primed result, raising EngineError on a miss."""
        request = self.request_for(
            name, heuristic, cache, size, pad_cache, m_lines, max_outer, seed
        )
        if request not in self._stats:
            raise EngineError(f"no result for run {request_key(request)}")
        return self._stats[request]


def figure_modules() -> Dict[str, object]:
    """Name -> module map of every runnable table/figure."""
    from repro import experiments

    modules = {
        "table2": experiments.table2,
        "conflicts3c": experiments.conflict_fraction,
    }
    for i in range(8, 18):
        modules[f"fig{i}"] = getattr(experiments, f"fig{i}")
    return modules


def _call_compute(module, runner, programs=None):
    params = inspect.signature(module.compute).parameters
    kwargs = {}
    if programs:
        if "programs" in params:
            kwargs["programs"] = tuple(programs)
        elif "kernels" in params:
            kwargs["kernels"] = tuple(programs)
    return module.compute(runner, **kwargs)


def collect_requests(
    figures: Sequence[str] = DEFAULT_FIGURES,
    programs: Optional[Sequence[str]] = None,
) -> List[RunRequest]:
    """Plan: the deduplicated requests the given figures would simulate."""
    modules = figure_modules()
    unknown = [name for name in figures if name not in modules]
    if unknown:
        raise ConfigError(
            f"unknown figure(s) {unknown}; known: {sorted(modules)}"
        )
    planner = PlanningRunner()
    for name in figures:
        _call_compute(modules[name], planner, programs)
    return planner.requests


@dataclass
class SweepReport:
    """Everything ``run-all`` produced."""

    outcomes: List[RunOutcome]
    renders: Dict[str, str]  # figure name -> rendered text (or placeholder)
    wall_time: float
    journal_path: Optional[pathlib.Path] = None

    def counts(self) -> Dict[str, int]:
        """Tally outcomes by status (``ok``/``degraded``/``cached``/
        ``rolled_back``/``failed``)."""
        tally: Dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally

    @property
    def failures(self) -> List[RunOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    @property
    def rollbacks(self) -> List[RunOutcome]:
        """Runs the regression guard rolled back to the original layout."""
        return [o for o in self.outcomes if o.status == "rolled_back"]


def run_figures(
    figures: Sequence[str] = DEFAULT_FIGURES,
    programs: Optional[Sequence[str]] = None,
    config: Optional[EngineConfig] = None,
    cache_dir: Optional[str] = None,
    journal_path: Optional[str] = None,
) -> SweepReport:
    """Plan, execute and render a set of figures through the engine."""
    start = time.monotonic()
    with obs.span("plan.collect", figures=len(figures)):
        requests = collect_requests(figures, programs)

    store = None
    if cache_dir:
        store = CrashSafeStore(pathlib.Path(cache_dir) / STORE_FILENAME)
        if journal_path is None:
            journal_path = pathlib.Path(cache_dir) / JOURNAL_FILENAME
    journal = RunJournal(journal_path) if journal_path else NullJournal()

    def _journal_span(record: dict) -> None:
        journal.emit("span", **record)

    def _journal_guard(event: str, fields: dict) -> None:
        # Parent-side guard events (e.g. a strict driver check during
        # planning); worker-side verdicts are re-journaled by the engine.
        journal.emit(event, **fields)

    engine = ExperimentEngine(config)
    obs.add_span_sink(_journal_span)
    guard_runtime.add_sink(_journal_guard)
    try:
        with obs.span("plan.execute", requests=len(requests)):
            outcomes = engine.run_many(requests, store=store, journal=journal)
    finally:
        guard_runtime.remove_sink(_journal_guard)
        obs.remove_span_sink(_journal_span)
        journal.close()
        if store is not None:
            store.close()

    runner = PrimedRunner()
    for outcome in outcomes:
        if outcome.stats is not None:
            runner.prime(outcome.request, outcome.stats)

    modules = figure_modules()
    renders: Dict[str, str] = {}
    with obs.span("plan.render", figures=len(figures)):
        for name in figures:
            module = modules[name]
            try:
                renders[name] = module.render(
                    _call_compute(module, runner, programs)
                )
            except EngineError as exc:
                renders[name] = f"[{name} incomplete: {exc}]"
    return SweepReport(
        outcomes=outcomes,
        renders=renders,
        wall_time=time.monotonic() - start,
        journal_path=pathlib.Path(journal_path) if journal_path else None,
    )
