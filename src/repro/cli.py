"""Command-line interface.

Usage (``python -m repro <command>``):

* ``pad FILE`` — run a padding heuristic on a DSL kernel and print the
  decisions, the final layout and the Table-2 row.
* ``simulate FILE`` — simulate a kernel before/after padding and print
  miss rates.
* ``conflicts FILE`` — print the conflict diagnostics for a layout.
* ``trace FILE OUT.npz`` — dump a kernel's address trace for external
  tools.
* ``bench`` — list the registered benchmark programs, or run one.
* ``figure NAME`` — regenerate one of the paper's tables/figures.
* ``run-all`` — run a whole figure set through the fault-tolerant
  parallel engine (``--jobs/--timeout/--retries``; ``--chaos SCHEDULE``
  injects the worker faults of a :mod:`repro.chaos` schedule file).
* ``stats FILE`` — render a metrics file written by ``--metrics``.
* ``lint [FILES...]`` — static cache-hazard and IR-correctness analysis
  over DSL kernels and/or the registered benchmarks
  (``--format text|json|sarif``, ``--select/--ignore`` rule IDs,
  ``--fail-on error|warning|info|never``).
* ``campaign run SPEC.json --workdir DIR`` — execute a declarative,
  crash-resumable benchmark campaign; ``campaign resume`` continues a
  killed campaign from its journal and durable disk tier without
  re-simulating committed items; ``campaign status`` replays the
  journal and prints progress (see :mod:`repro.campaign`).

``simulate``, ``bench``, ``figure`` and ``run-all`` accept
``--metrics PATH``: metrics collection is switched on for the whole
command and a snapshot is written on exit (Prometheus text, or JSON
when the path ends in ``.json``) — even when the command fails.

``simulate``, ``bench`` and ``run-all`` accept ``--guard
{off,warn,strict}`` (plus ``--guard-epsilon`` and ``--guard-budget``):
transformation guardrails that validate layouts, sanitize semantics and
auto-roll back miss-rate regressions (see :mod:`repro.guard`).

Exit codes: 0 success, 1 partial results (some runs failed), 2 usage or
library error, 3 impossible invocation (e.g. an output path in a
nonexistent directory), 4-7 for engine failures, 8 for a strict-mode
guard violation, 9 for lint findings at or above ``--fail-on``, 10
for campaign orchestration failures, and 11 for layout-optimization
(``pad --optimize``) failures (see :data:`EXIT_CODES` and the table in
:mod:`repro.errors`).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Dict, List, Optional

from repro.cache.config import CacheConfig, parse_byte_size
from repro.errors import (
    CampaignError,
    ConfigError,
    EngineError,
    GuardError,
    GuardViolationError,
    LintError,
    OptimizeError,
    ReproError,
    RunTimeout,
    StoreCorruption,
    UsageError,
    WorkerCrashed,
)
from repro.experiments.runner import HEURISTICS

EXIT_CODES = (
    (OptimizeError, 11),
    (CampaignError, 10),
    (LintError, 9),
    (GuardError, 8),
    (StoreCorruption, 7),
    (WorkerCrashed, 6),
    (RunTimeout, 5),
    (EngineError, 4),
    (UsageError, 3),
    (ReproError, 2),
)
"""Most-specific-first mapping from error class to process exit code."""


def exit_code_for(exc: BaseException) -> int:
    """Exit code for an uncaught :class:`ReproError` (default 2)."""
    for klass, code in EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 2


def _parse_size(text: str, flag: str = "size") -> int:
    """Parse '16K', '2048', '1M' into bytes; UsageError naming ``flag``."""
    return parse_byte_size(text, flag)


def _parse_params(items: Optional[List[str]]) -> Dict[str, int]:
    params: Dict[str, int] = {}
    for item in items or []:
        name, _, value = item.partition("=")  # no "=": int("") fails
        try:
            params[name.strip()] = int(value)
        except ValueError:
            raise UsageError(
                f"--param {item!r}: expected NAME=VALUE with an integer VALUE"
            ) from None
    return params


def _check_heuristic(args) -> None:
    """Reject an unknown --heuristic before a command prints anything."""
    name = getattr(args, "heuristic", None)
    if name is not None and name not in HEURISTICS:
        raise UsageError(
            f"--heuristic {name!r}: unknown; known: {sorted(HEURISTICS)}"
        )


def _cache_from_args(args) -> CacheConfig:
    return CacheConfig(
        size_bytes=_parse_size(args.cache, "--cache"),
        line_bytes=_parse_size(args.line, "--line"),
        associativity=args.assoc,
    )


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache", default="16K", help="cache size (default 16K)")
    parser.add_argument("--line", default="32", help="line size in bytes (default 32)")
    parser.add_argument("--assoc", type=int, default=1, help="associativity (default 1)")


def _add_metrics_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", metavar="PATH",
        help="collect pipeline metrics and write a snapshot here on exit "
             "(Prometheus text; .json for JSON)",
    )


def _add_jit_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jit", choices=("on", "off", "auto"), default="auto",
        help="trace-JIT policy: compile hot affine loop nests into batched "
             "address generators (auto, default), compile every eligible "
             "nest (on), or always interpret (off); all modes emit the "
             "identical address stream",
    )


def _add_tier_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tier", choices=("analytic", "auto", "sim"), default="sim",
        help="analytic tier-0 policy: consult the closed-form miss "
             "predictor before simulating (auto), require it and fail "
             "loudly on unanalyzable programs (analytic), or always "
             "simulate (sim, default); analytic answers are exact, so "
             "every mode returns identical counts",
    )


def _add_guard_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--guard", choices=("off", "warn", "strict"), default="off",
        help="transformation guardrails: layout invariants, semantic "
             "sanitizer and miss-rate regression rollback (default off; "
             "strict exits nonzero on any violation)",
    )
    parser.add_argument(
        "--guard-epsilon", type=float, default=0.5, metavar="PCT",
        help="tolerated miss-rate regression in percentage points before "
             "the guard rolls back to the original layout (default 0.5)",
    )
    parser.add_argument(
        "--guard-budget", metavar="BYTES", default=None,
        help="ceiling on total pad bytes (e.g. 64K); over-budget layouts "
             "are degraded by dropping the largest intra pads first",
    )


def _require_parent_dir(path: str, flag: str) -> None:
    """Reject output paths whose directory does not exist (UsageError)."""
    parent = pathlib.Path(path).parent
    if str(parent) and not parent.is_dir():
        raise UsageError(
            f"{flag} {path!r}: directory {str(parent)!r} does not exist"
        )


def _guard_config_from_args(args):
    """Build the GuardConfig the flags describe, or None for --guard off."""
    mode = getattr(args, "guard", None)
    if not mode or mode == "off":
        return None
    from repro.guard import GuardConfig

    budget = None
    if getattr(args, "guard_budget", None):
        budget = _parse_size(args.guard_budget, "--guard-budget")
    return GuardConfig(
        mode=mode,
        epsilon_pct=args.guard_epsilon,
        budget_bytes=budget,
    )


def _add_program_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="DSL kernel file (- for stdin)")
    parser.add_argument(
        "--param", action="append", metavar="NAME=VALUE",
        help="override a 'param' in the kernel (repeatable)",
    )


def _load_program(args):
    from repro.frontend import parse_program

    source = sys.stdin.read() if args.file == "-" else open(args.file).read()
    return parse_program(source, params=_parse_params(args.param))


def _run_heuristic(prog, name: str, cache: CacheConfig, m_lines: int):
    from repro.padding.common import PadParams

    params = PadParams.for_cache(cache, m_lines=m_lines)
    return HEURISTICS[name](prog, params)


def cmd_pad(args) -> int:
    """Run a padding heuristic and print decisions, layout, Table-2 row."""
    from repro.padding import format_table2, table2_row

    prog = _load_program(args)
    cache = _cache_from_args(args)
    lint_on = getattr(args, "lint", False)
    if lint_on:
        from repro.lint import LintConfig
        from repro.lint import runtime as lint_runtime

        lint_runtime.activate(LintConfig(cache=cache, select=("C",)))
    try:
        if getattr(args, "optimize", False):
            return _cmd_pad_optimize(args, prog, cache)
        result = _run_heuristic(prog, args.heuristic, cache, args.m)
    finally:
        if lint_on:
            lint_runtime.deactivate()
    print(f"{result.heuristic} targeting {cache.describe()}")
    for d in result.intra_decisions:
        print(f"  intra {d.array}: dim {d.dim_index} += {d.elements} ({d.heuristic})")
    for d in result.inter_decisions:
        if d.pad_bytes:
            print(f"  inter {d.unit}: +{d.pad_bytes} bytes (at {d.final})")
        if d.gave_up:
            print(f"  inter {d.unit}: GAVE UP, kept original address "
                  f"{d.final} (no satisfying address exists)")
        elif d.abandoned:
            print(f"  inter {d.unit}: abandoned unsatisfiable condition "
                  f"source(s): {', '.join(d.abandoned)}")
    print("\nlayout:")
    for decl in result.prog.decls:
        dims = ""
        if hasattr(decl, "dims"):
            dims = "(" + ",".join(map(str, result.layout.dim_sizes(decl.name))) + ")"
        print(f"  {decl.name}{dims} @ {result.layout.base(decl.name)}")
    print()
    print(format_table2([table2_row(result)]))
    failures = result.inter_failures
    if failures:
        print()
        print(f"give-ups: {len(failures)} placement(s) kept a conflicting "
              f"address: {', '.join(failures)}")
    if lint_on and result.lint is not None:
        print()
        if result.lint.clean:
            print("lint: no residual cache hazards in the padded layout")
        else:
            print(f"lint: {len(result.lint.findings)} residual cache "
                  f"hazard(s) in the padded layout:")
            for finding in result.lint.findings:
                print(f"  {finding.describe()}")
        if failures:
            print(f"lint: note: placement gave up on {', '.join(failures)} "
                  f"— hazards at their original addresses persist "
                  f"(pad --optimize searches past greedy give-ups)")
    return 0


def _cmd_pad_optimize(args, prog, cache) -> int:
    """``pad --optimize``: joint search over the padding constraint net."""
    from repro.optimize import optimize_layout
    from repro.padding.common import PadParams

    params = PadParams.for_cache(cache, m_lines=args.m)
    result = optimize_layout(
        prog, params,
        beam=args.beam, budget=args.budget, objective=args.objective,
        heuristic=args.heuristic, guard=_guard_config_from_args(args),
    )
    print(f"targeting {cache.describe()}")
    for line in result.describe():
        print(line)
    if result.improved and result.assignment:
        print("\nwinning assignment:")
        for (kind, name), value in sorted(result.assignment.items()):
            what = ("element(s) on dim 0" if kind == "intra"
                    else "byte(s) skipped before base")
            print(f"  {kind} {name}: +{value} {what}")
    print("\nlayout:")
    for decl in prog.arrays:
        dims = "(" + ",".join(
            map(str, result.layout.dim_sizes(decl.name))
        ) + ")"
        print(f"  {decl.name}{dims} @ {result.layout.base(decl.name)}")
    failures = result.incumbent.inter_failures
    if failures and not result.improved:
        print()
        print(f"note: greedy gave up on {', '.join(failures)} and the "
              f"search found nothing strictly better — widen --beam or "
              f"--budget to explore further")
    return 0


def cmd_simulate(args) -> int:
    """Simulate a kernel before/after padding and print miss rates."""
    from repro import simulate_program
    from repro.guard import runtime as guard_runtime
    from repro.padding.drivers import original

    prog = _load_program(args)
    cache = _cache_from_args(args)
    tier = getattr(args, "tier", "sim")

    def answer(p, layout):
        """(stats, tier) per the --tier policy; analytic is exact."""
        if tier != "sim":
            from repro.analysis.predict import predict_misses

            outcome = predict_misses(p, layout, cache)
            if outcome.analyzable:
                return outcome.prediction.stats, "analytic"
            if tier == "analytic":
                outcome.require()
        return simulate_program(p, layout, cache, jit=args.jit), "sim"

    baseline = original(prog)
    before, before_tier = answer(prog, baseline.layout)
    print(f"cache {cache.describe()}")
    suffix = " [analytic]" if before_tier == "analytic" else ""
    print(f"original: {before.describe()}{suffix}")
    if args.heuristic != "original":
        result = _run_heuristic(prog, args.heuristic, cache, args.m)
        guard = guard_runtime.active_config()
        if guard is not None:
            if tier == "analytic":
                from repro.errors import PredictError

                raise PredictError(
                    "--tier analytic cannot run under an active "
                    "transformation guard: guard verdicts need the "
                    "simulation pipeline"
                )
            from repro.guard import check_transform

            report, after = check_transform(
                result.prog, result.layout, guard,
                simulate_fn=lambda p, lay: simulate_program(
                    p, lay, cache, jit=args.jit
                ),
                baseline_stats=before,
                dropped=result.guard.dropped if result.guard else (),
                jit=args.jit,
            )
            after_tier = "sim"
            print(f"guard: {report.describe()}")
        else:
            after, after_tier = answer(result.prog, result.layout)
        suffix = " [analytic]" if after_tier == "analytic" else ""
        print(f"{args.heuristic}: {after.describe()}{suffix}")
        print(
            f"improvement: {before.miss_rate_pct - after.miss_rate_pct:.2f} points"
        )
    return 0


def cmd_predict(args) -> int:
    """Analytic miss prediction: closed-form counts or an explicit bailout."""
    import dataclasses
    import json

    from repro.analysis.predict import predict_misses
    from repro.padding.drivers import original

    prog = _load_program(args)
    cache = _cache_from_args(args)
    result = (
        original(prog)
        if args.heuristic == "original"
        else _run_heuristic(prog, args.heuristic, cache, args.m)
    )
    kwargs = {} if args.budget is None else {"budget": args.budget}
    outcome = predict_misses(result.prog, result.layout, cache, **kwargs)
    if args.format == "json":
        record = {
            "program": prog.name,
            "heuristic": args.heuristic,
            "cache": cache.describe(),
            "analyzable": outcome.analyzable,
        }
        if outcome.analyzable:
            pred = outcome.prediction
            record.update(
                stats=dataclasses.asdict(pred.stats),
                miss_rate_pct=round(pred.stats.miss_rate_pct, 4),
                per_array=pred.per_array,
                per_ref=[dataclasses.asdict(r) for r in pred.per_ref],
                replayed_accesses=pred.replayed_accesses,
                folded_accesses=pred.folded_accesses,
                fold_ratio=round(pred.fold_ratio, 2),
            )
        else:
            record["bailouts"] = [
                dataclasses.asdict(b) for b in outcome.bailouts
            ]
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0 if outcome.analyzable else 2
    print(f"cache {cache.describe()}")
    if not outcome.analyzable:
        print(f"{prog.name} ({args.heuristic}): not analyzable")
        for bailout in outcome.bailouts:
            print(f"  - {bailout.render()}")
        return 2
    pred = outcome.prediction
    print(f"{prog.name} ({args.heuristic}): {pred.stats.describe()}")
    print(
        f"replayed {pred.replayed_accesses} of {pred.stats.accesses} "
        f"accesses (fold {pred.fold_ratio:.1f}x)"
    )
    print("per-array:")
    for array, row in pred.per_array.items():
        print(
            f"  {array}: accesses={row['accesses']} misses={row['misses']} "
            f"cold={row['cold_misses']} self={row['self_conflict_misses']} "
            f"cross={row['cross_conflict_misses']}"
        )
    return 0


def cmd_conflicts(args) -> int:
    """Diagnose conflicting reference pairs; exit 1 if any are severe."""
    from repro.analysis.diagnostics import conflict_report, render_report
    from repro.padding.drivers import original

    prog = _load_program(args)
    cache = _cache_from_args(args)
    result = (
        original(prog)
        if args.heuristic == "original"
        else _run_heuristic(prog, args.heuristic, cache, args.m)
    )
    findings = conflict_report(result.prog, result.layout, cache)
    print(render_report(findings))
    return 1 if any(f.severe for f in findings) else 0


def cmd_trace(args) -> int:
    """Dump a kernel's address trace to a compressed .npz file."""
    from repro.trace.io import save_trace

    _require_parent_dir(args.out, "trace output")
    prog = _load_program(args)
    cache = _cache_from_args(args)
    result = _run_heuristic(prog, args.heuristic, cache, args.m)
    count = save_trace(args.out, result.prog, result.layout, jit=args.jit)
    print(f"wrote {count} accesses to {args.out} "
          f"({args.heuristic} layout, pad target {cache.describe()})")
    return 0


def cmd_bench(args) -> int:
    """List the registered benchmarks, or run one under a heuristic."""
    from repro.bench import ALL_SPECS, get_spec
    from repro.experiments.runner import Runner

    if not args.name:
        for spec in ALL_SPECS:
            print(f"{spec.name:10s} [{spec.suite:6s}] {spec.description}")
        return 0
    runner = Runner(jit=args.jit)
    cache = _cache_from_args(args)
    spec = get_spec(args.name)
    orig = runner.miss_rate(args.name, "original", cache, size=args.n)
    padded = runner.miss_rate(args.name, args.heuristic, cache, size=args.n)
    print(f"{spec.name} (n={args.n or spec.default_size}) on {cache.describe()}:")
    print(f"  original miss rate: {orig:.2f}%")
    print(f"  {args.heuristic} miss rate: {padded:.2f}%  "
          f"(improvement {orig - padded:.2f})")
    if runner.last_guard is not None:
        print(f"  guard: {runner.last_guard.describe()}")
    return 0


def cmd_figure(args) -> int:
    """Regenerate one of the paper's tables/figures and print it."""
    from repro import experiments

    modules = {
        "table2": experiments.table2,
        "summary": experiments.summary,
        "conflicts3c": experiments.conflict_fraction,
        **{f"fig{i}": getattr(experiments, f"fig{i}") for i in range(8, 18)},
    }
    if args.name not in modules:
        raise ConfigError(
            f"unknown figure {args.name!r}; known: {sorted(modules)}"
        )
    module = modules[args.name]
    programs = tuple(args.programs) if args.programs else None
    if args.name == "summary":
        result = module.summarize(programs=programs)
    elif args.name in ("fig16", "fig17"):
        sizes = tuple(range(250, 521, args.step))
        result = module.compute(sizes=sizes)
        if args.charts:
            print(module.render_charts(result))
            return 0
    elif programs:
        result = module.compute(programs=programs)
    else:
        result = module.compute()
    print(module.render(result))
    return 0


def cmd_run_all(args) -> int:
    """Run a figure set through the fault-tolerant parallel engine."""
    from repro.engine.core import EngineConfig
    from repro.engine.plan import DEFAULT_FIGURES, run_figures
    from repro.guard import runtime as guard_runtime

    faults = _run_all_faults(args.chaos) if args.chaos else None
    config = EngineConfig(
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        fallback=not args.no_fallback,
        faults=faults,
        guard=guard_runtime.active_config(),
        jit=args.jit,
        tier=getattr(args, "tier", "sim"),
    )
    report = run_figures(
        figures=tuple(args.figures) if args.figures else DEFAULT_FIGURES,
        programs=tuple(args.programs) if args.programs else None,
        config=config,
        cache_dir=args.cache_dir,
        journal_path=args.journal,
    )
    for text in report.renders.values():
        print(text)
        print()
    counts = report.counts()
    summary = ", ".join(
        f"{counts[status]} {status}"
        for status in ("ok", "degraded", "cached", "rolled_back", "failed")
        if status in counts
    )
    print(
        f"run-all: {len(report.outcomes)} runs ({summary}) "
        f"in {report.wall_time:.1f}s with {args.jobs} worker(s)"
    )
    if report.journal_path:
        print(f"journal: {report.journal_path}")
    for outcome in report.rollbacks:
        print(f"rolled back: {outcome.key} (kept original-layout stats)")
    for outcome in report.failures:
        print(
            f"failed: {outcome.key} after {outcome.attempts} attempts: "
            f"{outcome.error}",
            file=sys.stderr,
        )
    guarded = sum(outcome.guard_failed for outcome in report.failures)
    if guarded:
        raise GuardViolationError(
            f"{guarded} run(s) failed a strict guard check"
        )
    return 1 if report.failures else 0


def _parse_selectors(text: Optional[str]) -> tuple:
    """Split a comma-separated --select/--ignore value."""
    if not text:
        return ()
    return tuple(part.strip() for part in text.split(",") if part.strip())


def cmd_lint(args) -> int:
    """Statically analyze DSL kernels; exit 9 on findings past --fail-on."""
    from repro.errors import LintFindingsError
    from repro.lint import (
        LintConfig,
        Severity,
        lint_rules_catalog,
        lint_source,
        render_results,
    )

    if args.list_rules:
        print(lint_rules_catalog())
        return 0
    targets = []
    for path in args.files:
        source = sys.stdin.read() if path == "-" else open(path).read()
        targets.append((path, source))
    if args.benchmarks:
        from repro.bench import KERNEL_SOURCES

        for name in sorted(KERNEL_SOURCES):
            targets.append((f"bench:{name}", KERNEL_SOURCES[name]))
    if not targets:
        raise UsageError("nothing to lint: pass kernel files or --benchmarks")
    config = LintConfig(
        cache=_cache_from_args(args),
        select=_parse_selectors(args.select),
        ignore=_parse_selectors(args.ignore),
    )
    params = _parse_params(args.param)
    results = [
        lint_source(source, params=params, config=config, source_name=name)
        for name, source in targets
    ]
    report = render_results(results, args.format)
    if args.out:
        _require_parent_dir(args.out, "--out")
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
        print(f"lint report: {args.out}", file=sys.stderr)
    else:
        print(report)
    if args.fail_on != "never":
        threshold = Severity.from_name(args.fail_on)
        offending = [
            f for result in results for f in result.at_or_above(threshold)
        ]
        if offending:
            raise LintFindingsError(
                f"{len(offending)} finding(s) at or above "
                f"{threshold.label} across {len(results)} program(s)",
                findings=offending,
            )
    return 0


def cmd_stats(args) -> int:
    """Render a metrics snapshot file as human-readable tables."""
    from repro.obs.export import load_metrics, render_stats

    snapshot = load_metrics(args.file)
    print(render_stats(snapshot, family=args.family))
    return 0


def cmd_serve(args) -> int:
    """Run the batched analysis service until interrupted."""
    from repro.serve.batching import ServeConfig
    from repro.serve.server import serve_forever

    if args.port < 0 or args.port > 65535:
        raise UsageError(f"--port {args.port}: not a TCP port")
    max_body_bytes = _parse_size(args.max_body, "--max-body")
    if max_body_bytes < 1:
        raise UsageError(
            f"--max-body {args.max_body!r}: must be at least 1 byte"
        )
    chaos = None
    if args.chaos:
        from repro.chaos import load_schedule

        chaos = load_schedule(args.chaos)
        print(f"chaos: {chaos.describe()}", file=sys.stderr)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=max(1, args.workers),
        queue_depth=max(1, args.queue_depth),
        timeout_s=args.timeout,
        max_batch=max(1, args.max_batch),
        max_body_bytes=max_body_bytes,
        engine_jobs=max(1, args.engine_jobs),
        guard=_guard_config_from_args(args),
        jit=args.jit,
        campaign_dir=args.campaign_dir,
        campaign_jobs=max(1, args.campaign_jobs),
        brownout=args.brownout,
        chaos=chaos,
    )
    serve_forever(config, verbose=args.verbose)
    return 0


def _run_all_faults(path):
    """The worker-fault plan of a ``run-all --chaos`` schedule file.

    ``run-all`` is neither a service nor a campaign, so a schedule that
    sets serve or campaign faults is refused rather than half-applied.
    """
    from repro.chaos import load_schedule

    schedule = load_schedule(path)
    campaign = (
        schedule.coordinator_kill_after is not None or schedule.tier_corrupt
    )
    for section, active in (
        ("serve", schedule.serve.active), ("campaign", campaign),
    ):
        if active:
            raise ConfigError(
                f"run-all --chaos: the schedule's {section!r} section has "
                "no effect on run-all; only 'worker' faults apply"
            )
    return schedule.engine_plan()


def _campaign_run(args, resume: bool) -> int:
    """Shared body of ``campaign run`` and ``campaign resume``."""
    from repro.campaign import Coordinator, compile_plan
    from repro.campaign.spec import spec_from_file
    from repro.chaos import load_schedule

    spec = spec_from_file(args.spec)
    plan = compile_plan(spec)
    faults = load_schedule(args.chaos) if args.chaos else None
    coordinator = Coordinator(
        plan,
        args.workdir,
        jobs=max(1, args.jobs),
        allow_partial=args.allow_partial,
        faults=faults,
        journal_fsync=args.fsync_journal,
    )
    report = coordinator.run(resume=resume)
    verb = "resumed" if report.resumed else "ran"
    print(
        f"campaign {plan.campaign_id} ({spec.name}): {verb} "
        f"{len(plan.items)} items in {report.duration:.2f}s "
        f"({report.completed} completed, {report.cached} cached, "
        f"{report.failed} failed, {report.quarantined} quarantined)"
    )
    print(f"results: {coordinator.results_path}")
    print(f"journal: {coordinator.journal_path}")
    for outcome in report.outcomes.values():
        if outcome.status != "failed":
            continue
        print(
            f"failed: {outcome.item.key} after {outcome.attempts} "
            f"attempts: {outcome.error}",
            file=sys.stderr,
        )
    return 1 if report.failed else 0


def cmd_campaign(args) -> int:
    """Dispatch ``campaign run|resume|status``."""
    if args.campaign_cmd == "status":
        return _campaign_status(args)
    return _campaign_run(args, resume=args.campaign_cmd == "resume")


def _campaign_status(args) -> int:
    """Replay a campaign journal and print progress."""
    import json as _json

    from repro.campaign.coordinator import JOURNAL_FILENAME
    from repro.campaign.state import replay_journal
    from repro.engine.journal import read_journal

    journal_path = pathlib.Path(args.workdir) / JOURNAL_FILENAME
    if not journal_path.exists():
        raise UsageError(
            f"no campaign journal at {journal_path}; "
            "was this workdir ever used by `repro campaign run`?"
        )
    state = replay_journal(read_journal(journal_path), args.campaign)
    if args.json:
        print(_json.dumps(state.describe(), indent=2, sort_keys=True))
        return 0
    counts = state.counts()
    print(f"campaign: {state.campaign_id} ({state.name})")
    print(f"plan: {state.plan_digest}")
    phase = "finished" if state.finished else "in progress (or interrupted)"
    print(f"phase: {phase}")
    print(
        f"items: {state.total_items} total — "
        + ", ".join(f"{counts[k]} {k}" for k in sorted(counts))
    )
    if state.resumes:
        print(f"resumes: {state.resumes}")
    if state.quarantines:
        print(f"quarantined artifacts: {state.quarantines}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Rivera & Tseng, PLDI 1998 "
        "(conflict-miss-eliminating data transformations)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pad", help="pad a DSL kernel and show decisions")
    _add_program_args(p)
    _add_cache_args(p)
    p.add_argument("--heuristic", default="pad", help="heuristic name (default pad)")
    p.add_argument("--m", type=int, default=4, help="PADLITE separation M in lines")
    p.add_argument("--lint", action="store_true",
                   help="annotate the report with residual cache hazards "
                        "(C rules) found in the padded layout")
    p.add_argument("--optimize", action="store_true",
                   help="search inter/intra pads jointly (beam + "
                        "branch-and-bound over a conflict-constraint "
                        "network); the greedy result stays the incumbent, "
                        "so the search never does worse")
    p.add_argument("--beam", type=int, default=8,
                   help="beam width for --optimize (default 8)")
    p.add_argument("--budget", type=int, default=64,
                   help="max candidate layouts --optimize scores "
                        "(default 64)")
    p.add_argument("--objective", choices=("miss", "bytes"), default="miss",
                   help="--optimize ranking: fewest predicted conflict "
                        "misses (miss, default) or smallest footprint "
                        "among layouts that do not regress misses (bytes)")
    _add_guard_args(p)
    p.set_defaults(fn=cmd_pad)

    p = sub.add_parser("simulate", help="simulate a kernel before/after padding")
    _add_program_args(p)
    _add_cache_args(p)
    p.add_argument("--heuristic", default="pad")
    p.add_argument("--m", type=int, default=4)
    _add_jit_arg(p)
    _add_tier_arg(p)
    _add_metrics_arg(p)
    _add_guard_args(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "predict",
        help="closed-form miss prediction (exact or explicit bailout)",
    )
    _add_program_args(p)
    _add_cache_args(p)
    p.add_argument("--heuristic", default="original",
                   help="layout to analyze (default original)")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--budget", type=int, default=None, metavar="ACCESSES",
                   help="replayed-access budget before the predictor bails "
                        "out with exceeds_budget (default 4194304)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default text)")
    _add_metrics_arg(p)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("conflicts", help="diagnose conflicting reference pairs")
    _add_program_args(p)
    _add_cache_args(p)
    p.add_argument("--heuristic", default="original")
    p.add_argument("--m", type=int, default=4)
    p.set_defaults(fn=cmd_conflicts)

    p = sub.add_parser("trace", help="dump a kernel's address trace to .npz")
    _add_program_args(p)
    _add_cache_args(p)
    p.add_argument("out", help="output .npz path")
    p.add_argument("--heuristic", default="original")
    p.add_argument("--m", type=int, default=4)
    _add_jit_arg(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("bench", help="list or run registered benchmarks")
    p.add_argument("name", nargs="?", help="benchmark name (omit to list)")
    p.add_argument("--n", type=int, default=None, help="problem size override")
    p.add_argument("--heuristic", default="pad")
    _add_cache_args(p)
    _add_jit_arg(p)
    _add_metrics_arg(p)
    _add_guard_args(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("figure", help="regenerate a paper table/figure")
    p.add_argument("name", help="table2 or fig8..fig17")
    p.add_argument("--programs", nargs="*", help="restrict to these benchmarks")
    p.add_argument("--step", type=int, default=30, help="sweep step for fig16/17")
    p.add_argument("--charts", action="store_true",
                   help="render fig16/17 as ASCII charts instead of tables")
    _add_metrics_arg(p)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser(
        "run-all",
        help="run a figure set through the fault-tolerant parallel engine",
    )
    p.add_argument("--figures", nargs="*",
                   help="figure names (default: table2 + fig8..fig15)")
    p.add_argument("--programs", nargs="*", help="restrict to these benchmarks")
    p.add_argument("--jobs", type=int, default=4,
                   help="parallel worker processes (default 4)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-run wall-clock budget in seconds (default 300)")
    p.add_argument("--retries", type=int, default=2,
                   help="extra attempts per run before fallback (default 2)")
    p.add_argument("--chaos", metavar="SCHEDULE",
                   help="deterministic fault schedule as a JSON file (the "
                        "repro.chaos format; only its 'worker' section "
                        "applies to run-all)")
    p.add_argument("--cache-dir",
                   help="result store directory: runs commit to "
                        "<cache-dir>/runner_cache.db (makes the sweep "
                        "resumable)")
    p.add_argument("--journal",
                   help="JSONL run journal path (default: "
                        "<cache-dir>/journal.jsonl)")
    p.add_argument("--no-fallback", action="store_true",
                   help="fail instead of degrading to the reference simulator")
    _add_jit_arg(p)
    _add_tier_arg(p)
    _add_metrics_arg(p)
    _add_guard_args(p)
    p.set_defaults(fn=cmd_run_all)

    p = sub.add_parser(
        "lint",
        help="static cache-hazard and IR-correctness analysis of DSL kernels",
    )
    p.add_argument("files", nargs="*",
                   help="DSL kernel files (- for stdin)")
    p.add_argument("--benchmarks", action="store_true",
                   help="also lint the registered benchmark kernel sources")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="override a 'param' in the kernels (repeatable)")
    _add_cache_args(p)
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="report format (default text)")
    p.add_argument("--select", metavar="IDS",
                   help="comma-separated rule IDs or family prefixes to run "
                        "(e.g. C001,I — default: all rules)")
    p.add_argument("--ignore", metavar="IDS",
                   help="comma-separated rule IDs or family prefixes to skip")
    p.add_argument("--fail-on", choices=("error", "warning", "info", "never"),
                   default="error",
                   help="exit 9 when a finding of this severity or worse "
                        "exists (default error)")
    p.add_argument("--out", metavar="PATH",
                   help="write the report here instead of stdout")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    _add_metrics_arg(p)
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "stats", help="render a metrics file written by --metrics"
    )
    p.add_argument("file", help="metrics snapshot (.prom/.txt or .json)")
    p.add_argument("--family", metavar="PREFIX",
                   help="only show metrics whose name starts with PREFIX")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "serve",
        help="run the batched JSON-over-HTTP analysis service",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8077,
                   help="TCP port (default 8077; 0 picks a free port)")
    p.add_argument("--workers", type=int, default=4,
                   help="in-process handler threads (default 4)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="bounded admission queue; requests past this get "
                        "HTTP 429 (default 64)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="default per-request deadline in seconds "
                        "(default 30)")
    p.add_argument("--max-batch", type=int, default=32,
                   help="engine requests coalesced per micro-batch "
                        "(default 32)")
    p.add_argument("--max-body", default="1M",
                   help="request-body ceiling; larger bodies get HTTP 413 "
                        "(default 1M)")
    p.add_argument("--engine-jobs", type=int, default=4,
                   help="warm simulation worker processes (default 4)")
    p.add_argument("--verbose", action="store_true",
                   help="log each request to stderr")
    p.add_argument("--campaign-dir", metavar="DIR",
                   help="enable the /v1/campaign endpoint, storing "
                        "campaign journals and disk tiers under DIR "
                        "(disabled when omitted)")
    p.add_argument("--campaign-jobs", type=int, default=2,
                   help="worker processes for served campaigns "
                        "(default 2)")
    p.add_argument("--brownout", action="store_true",
                   help="force brownout mode: simulate-class requests "
                        "answer from the memo tier or the static "
                        "estimator with degraded: true")
    p.add_argument("--chaos", metavar="SCHEDULE",
                   help="inject a deterministic fault schedule (JSON "
                        "file, see docs/RESILIENCE.md) into the engine "
                        "pool and admission ladder (testing only)")
    _add_jit_arg(p)
    _add_guard_args(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "campaign",
        help="run, resume or inspect a crash-resumable benchmark campaign",
    )
    csub = p.add_subparsers(dest="campaign_cmd", required=True)

    def _add_campaign_exec_args(cp):
        cp.add_argument("spec", help="campaign spec (JSON file)")
        cp.add_argument("--workdir", required=True,
                        help="campaign state directory (journal, durable "
                             "disk tier, results.json)")
        cp.add_argument("--jobs", type=int, default=4,
                        help="worker processes (default 4)")
        cp.add_argument("--allow-partial", action="store_true",
                        help="exit 1 with partial results instead of "
                             "exit 10 when items exhaust their retries")
        cp.add_argument("--chaos", metavar="SCHEDULE",
                        help="deterministic fault schedule as a JSON "
                             "file (the repro.chaos format: worker "
                             "faults plus campaign ckill; testing only)")
        cp.add_argument("--fsync-journal", action="store_true",
                        help="fsync the journal after every event "
                             "(slower, survives power loss)")
        _add_metrics_arg(cp)
        cp.set_defaults(fn=cmd_campaign)

    cp = csub.add_parser(
        "run", help="compile the spec into a plan and execute it"
    )
    _add_campaign_exec_args(cp)
    cp = csub.add_parser(
        "resume",
        help="continue a killed campaign; committed items are not re-run",
    )
    _add_campaign_exec_args(cp)
    cp = csub.add_parser(
        "status", help="replay the journal and print campaign progress"
    )
    cp.add_argument("--workdir", required=True,
                    help="campaign state directory")
    cp.add_argument("--campaign", metavar="ID",
                    help="campaign id when the journal holds several")
    cp.add_argument("--json", action="store_true",
                    help="machine-readable output")
    cp.set_defaults(fn=cmd_campaign)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    metrics_path = getattr(args, "metrics", None)
    try:
        if metrics_path:
            _require_parent_dir(metrics_path, "--metrics")
        _check_heuristic(args)
        guard = _guard_config_from_args(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    if metrics_path:
        from repro.obs import runtime as obs

        obs.reset()
        obs.enable()
    if guard is not None:
        from repro.guard import runtime as guard_runtime

        guard_runtime.activate(guard)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    finally:
        if guard is not None:
            guard_runtime.deactivate()
        if metrics_path:
            from repro.obs import write_metrics

            obs.disable()
            write_metrics(metrics_path)
            print(f"metrics: {metrics_path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
