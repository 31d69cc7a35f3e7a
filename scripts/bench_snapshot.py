#!/usr/bin/env python
"""Performance snapshots for the campaign/runner pipeline (CI artifact).

Runs a small benchmark sweep three ways and writes a ``BENCH_<n>.json``
snapshot next to the previous ones, so consecutive commits leave a
perf paper trail that can be diffed:

1. **cold** — a fresh campaign through the coordinator and worker
   pool: end-to-end simulate throughput with nothing cached.
2. **resume** — the same campaign resumed: every item must come back
   ``cached`` from the durable SQLite disk tier, which isolates the
   commit/replay overhead from simulation time.
3. **memo** — the same requests through a single in-process
   :class:`~repro.experiments.runner.Runner` backed by the campaign's
   disk tier, twice: the repeat pass measures the in-memory memo tier.

The snapshot also embeds the relevant ``repro_campaign_tier_*``,
``repro_engine_*`` and ``repro_runner_memo_hits_total`` counters from
the metrics registry so hit-rate regressions show up alongside
throughput ones.

Usage::

    PYTHONPATH=src python scripts/bench_snapshot.py \
        [--out DIR] [--benchmarks dot,jacobi,mult] [--jobs 2] [--label msg]

``--compare`` switches to the trace-JIT before/after mode: each program
in :func:`repro.bench.corpus.perf_corpus` is simulated end to end with
``jit="off"`` and ``jit="on"``, the two cache-stat results are required
to be identical, and the snapshot records per-case and aggregate
speedups.  ``--min-speedup X`` turns the aggregate into a CI gate
(exit 1 below X); ``--number N`` pins the output to ``BENCH_N.json``
instead of auto-numbering::

    PYTHONPATH=src python scripts/bench_snapshot.py \
        --compare --number 7 --min-speedup 5 [--repeats 3] [--out DIR]

``--compare --predict`` instead gates the analytic miss-prediction tier:
every case in :func:`repro.bench.corpus.eligible_corpus` is
simulated end to end (trace JIT + fast cache engine) and predicted in
closed form, the two results are required to be byte-identical, and the
aggregate simulate/predict throughput ratio must clear ``--min-speedup``::

    PYTHONPATH=src python scripts/bench_snapshot.py \
        --compare --predict --number 9 --min-speedup 50 [--out DIR]

``--compare --optimize`` gates the layout search (``pad --optimize``)
against greedy padding over the seeded corpus
(:data:`repro.optimize.corpus.CORPUS`): the search must never predict
more conflict misses than the greedy incumbent on ANY kernel, must
strictly beat it on every ``expect_win`` kernel, and every emitted
layout must be guard-clean::

    PYTHONPATH=src python scripts/bench_snapshot.py \
        --compare --optimize --number 10 [--out DIR]
"""

import argparse
import json
import pathlib
import re
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.campaign import Coordinator, compile_plan  # noqa: E402
from repro.campaign.spec import parse_spec  # noqa: E402
from repro.engine.store import CrashSafeStore  # noqa: E402
from repro.experiments.runner import Runner  # noqa: E402
from repro.obs import runtime as obs  # noqa: E402

DEFAULT_BENCHMARKS = "dot,jacobi,mult"


def next_snapshot_path(out_dir: pathlib.Path) -> pathlib.Path:
    """BENCH_<n>.json with n one past the largest already present."""
    highest = 0
    for path in out_dir.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            highest = max(highest, int(match.group(1)))
    return out_dir / f"BENCH_{highest + 1}.json"


def counter_total(snapshot: dict, name: str, **labels) -> float:
    """Sum a counter family, optionally restricted to matching labels."""
    total = 0.0
    for row in snapshot.get("counters", ()):
        if row["name"] != name:
            continue
        if any(row["labels"].get(k) != v for k, v in labels.items()):
            continue
        total += row["value"]
    return total


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def compare_main(args, out_dir: pathlib.Path) -> int:
    """JIT before/after: simulate the perf corpus both ways, gate on
    aggregate speedup, write a BENCH snapshot of the comparison."""
    from repro.cache.config import base_cache
    from repro.cache.fastsim import make_simulator
    from repro.jit import make_interpreter
    from repro.bench.corpus import perf_corpus

    obs.reset()
    obs.enable()

    def simulate(prog, layout, jit):
        sim = make_simulator(base_cache())
        return sim.access_stream(
            make_interpreter(prog, layout, jit=jit).trace()
        )

    cases = []
    total_off = total_on = 0.0
    for prog, layout in perf_corpus():
        best = {}
        stats = {}
        for jit in ("off", "on"):
            samples = []
            for _ in range(max(1, args.repeats)):
                stats[jit], elapsed = timed(
                    lambda j=jit: simulate(prog, layout, j)
                )
                samples.append(elapsed)
            best[jit] = min(samples)
        if stats["off"] != stats["on"]:
            print(f"error: {prog.name}: jit=on changed the simulation "
                  f"result; refusing to snapshot", file=sys.stderr)
            return 1
        total_off += best["off"]
        total_on += best["on"]
        accesses = stats["off"].accesses
        cases.append({
            "name": prog.name,
            "accesses": accesses,
            "interp_s": round(best["off"], 6),
            "jit_s": round(best["on"], 6),
            "speedup": round(best["off"] / best["on"], 3),
            "jit_accesses_per_s": round(accesses / best["on"], 1),
        })
        print(f"  {prog.name:20s} {accesses:>9d} accesses  "
              f"interp {best['off']:.3f}s  jit {best['on']:.3f}s  "
              f"{best['off'] / best['on']:.1f}x")

    aggregate = total_off / total_on if total_on else 0.0
    snap = obs.snapshot()
    document = {
        "schema": 1,
        "kind": "jit-compare",
        "label": args.label,
        "repeats": max(1, args.repeats),
        "cases": cases,
        "aggregate_speedup": round(aggregate, 3),
        "min_speedup": args.min_speedup,
        "jit_counters": {
            "compiled": counter_total(snap, "repro_jit_compiled_total"),
            "deopts": counter_total(snap, "repro_jit_deopt_total"),
            "chunks": counter_total(snap, "repro_jit_chunks_total"),
        },
    }
    if args.number is not None:
        path = out_dir / f"BENCH_{args.number}.json"
    else:
        path = next_snapshot_path(out_dir)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    print(f"  aggregate: {aggregate:.1f}x interpreter throughput")
    if args.min_speedup and aggregate < args.min_speedup:
        print(f"error: aggregate speedup {aggregate:.2f}x below the "
              f"--min-speedup {args.min_speedup}x gate", file=sys.stderr)
        return 1
    return 0


def predict_compare_main(args, out_dir: pathlib.Path) -> int:
    """Analytic tier before/after: simulate and predict the eligible
    corpus, require byte-identical counts, gate on throughput ratio."""
    from repro.analysis.predict import predict_misses
    from repro.bench.corpus import eligible_corpus
    from repro.cache.fastsim import make_simulator
    from repro.jit import make_interpreter

    obs.reset()
    obs.enable()

    def simulate(case):
        sim = make_simulator(case.cache)
        return sim.access_stream(
            make_interpreter(case.prog, case.layout, jit="on").trace()
        )

    cases = []
    total_sim = total_pred = 0.0
    for case in eligible_corpus():
        sim_samples, pred_samples = [], []
        sim_stats = outcome = None
        for _ in range(max(1, args.repeats)):
            sim_stats, elapsed = timed(lambda c=case: simulate(c))
            sim_samples.append(elapsed)
            outcome, elapsed = timed(
                lambda c=case: predict_misses(c.prog, c.layout, c.cache)
            )
            pred_samples.append(elapsed)
        if not outcome.analyzable:
            reasons = "; ".join(b.render() for b in outcome.bailouts)
            print(f"error: {case.name}: predictor bailed out of an "
                  f"eligible case ({reasons}); refusing to snapshot",
                  file=sys.stderr)
            return 1
        if outcome.prediction.stats != sim_stats:
            print(f"error: {case.name}: predicted counts diverge from "
                  f"simulation; refusing to snapshot", file=sys.stderr)
            return 1
        best_sim = min(sim_samples)
        best_pred = min(pred_samples)
        total_sim += best_sim
        total_pred += best_pred
        pred = outcome.prediction
        cases.append({
            "name": case.name,
            "accesses": pred.stats.accesses,
            "sim_s": round(best_sim, 6),
            "predict_s": round(best_pred, 6),
            "speedup": round(best_sim / best_pred, 3),
            "fold_ratio": round(pred.fold_ratio, 2),
            "replayed_accesses": pred.replayed_accesses,
        })
        print(f"  {case.name:20s} {pred.stats.accesses:>9d} accesses  "
              f"sim {best_sim:.3f}s  predict {best_pred:.3f}s  "
              f"{best_sim / best_pred:.1f}x  (fold {pred.fold_ratio:.0f}x)")

    aggregate = total_sim / total_pred if total_pred else 0.0
    snap = obs.snapshot()
    document = {
        "schema": 1,
        "kind": "predict-compare",
        "label": args.label,
        "repeats": max(1, args.repeats),
        "cases": cases,
        "aggregate_speedup": round(aggregate, 3),
        "min_speedup": args.min_speedup,
        "predict_counters": {
            "requests": counter_total(snap, "repro_predict_requests_total"),
            "predictions": counter_total(
                snap, "repro_predict_predictions_total"),
            "bailouts": counter_total(snap, "repro_predict_bailouts_total"),
        },
    }
    if args.number is not None:
        path = out_dir / f"BENCH_{args.number}.json"
    else:
        path = next_snapshot_path(out_dir)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    print(f"  aggregate: {aggregate:.1f}x simulation throughput")
    if args.min_speedup and aggregate < args.min_speedup:
        print(f"error: aggregate speedup {aggregate:.2f}x below the "
              f"--min-speedup {args.min_speedup}x gate", file=sys.stderr)
        return 1
    return 0


def optimize_compare_main(args, out_dir: pathlib.Path) -> int:
    """Search vs greedy over the seeded corpus: never worse anywhere,
    strictly better on every expect_win kernel, guard-clean layouts."""
    from repro.optimize import CORPUS, optimize_layout, vet_layout

    obs.reset()
    obs.enable()

    cases = []
    wins = regressions = unsound = missed_wins = 0
    for kernel in CORPUS:
        prog = kernel.program()
        params = kernel.pad_params()
        result, elapsed = timed(lambda: optimize_layout(
            prog, params, beam=8, budget=32, heuristic=kernel.heuristic,
        ))
        greedy = result.incumbent_score.conflicts
        winner = result.winner_score.conflicts
        violations = vet_layout(prog, result.layout)
        if winner > greedy:
            regressions += 1
        if violations:
            unsound += 1
        if winner < greedy:
            wins += 1
        elif kernel.expect_win:
            missed_wins += 1
        cases.append({
            "name": kernel.name,
            "heuristic": kernel.heuristic,
            "expect_win": kernel.expect_win,
            "greedy_conflicts": greedy,
            "search_conflicts": winner,
            "improvement": greedy - winner,
            "winner_from": result.winner_from,
            "scored_predict": result.scored_predict,
            "scored_sim": result.scored_sim,
            "prunes": result.prunes,
            "guard_clean": not violations,
            "elapsed_s": round(elapsed, 3),
        })
        verdict = ("WIN" if winner < greedy
                   else "tie" if winner == greedy else "REGRESSION")
        print(f"  {kernel.name:16s} greedy {greedy:>7d}  "
              f"search {winner:>7d}  {verdict:10s} "
              f"({result.winner_from}, {elapsed:.1f}s)")

    snap = obs.snapshot()
    document = {
        "schema": 1,
        "kind": "optimize-compare",
        "label": args.label,
        "cases": cases,
        "aggregate": {
            "kernels": len(cases),
            "strict_wins": wins,
            "regressions": regressions,
            "unsound_layouts": unsound,
            "missed_expected_wins": missed_wins,
        },
        "optimize_counters": {
            "runs": counter_total(snap, "repro_optimize_runs_total"),
            "candidates_predict": counter_total(
                snap, "repro_optimize_candidates_total", scorer="predict"),
            "candidates_sim": counter_total(
                snap, "repro_optimize_candidates_total", scorer="sim"),
            "prunes": counter_total(snap, "repro_optimize_prunes_total"),
            "improvements": counter_total(
                snap, "repro_optimize_improvements_total"),
        },
    }
    if args.number is not None:
        path = out_dir / f"BENCH_{args.number}.json"
    else:
        path = next_snapshot_path(out_dir)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    print(f"  {wins} strict win(s) on {len(cases)} kernel(s), "
          f"{regressions} regression(s)")
    failed = False
    if regressions:
        print(f"error: the search regressed greedy on {regressions} "
              f"kernel(s) — the incumbent rule is broken", file=sys.stderr)
        failed = True
    if missed_wins:
        print(f"error: {missed_wins} expect_win kernel(s) did not "
              f"strictly beat greedy", file=sys.stderr)
        failed = True
    if unsound:
        print(f"error: {unsound} emitted layout(s) failed the guard "
              f"vet", file=sys.stderr)
        failed = True
    if wins < 3:
        print(f"error: only {wins} strict win(s); the corpus gate "
              f"requires at least 3", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT),
                        help="directory for BENCH_<n>.json (default repo "
                             "root)")
    parser.add_argument("--benchmarks", default=DEFAULT_BENCHMARKS,
                        help=f"comma-separated benchmark names "
                             f"(default {DEFAULT_BENCHMARKS})")
    parser.add_argument("--jobs", type=int, default=2,
                        help="campaign worker processes (default 2)")
    parser.add_argument("--label", default="",
                        help="free-form note stored in the snapshot")
    parser.add_argument("--compare", action="store_true",
                        help="JIT before/after mode over the perf corpus")
    parser.add_argument("--predict", action="store_true",
                        help="with --compare: gate the analytic miss-"
                             "prediction tier against simulation over "
                             "the eligible corpus")
    parser.add_argument("--optimize", action="store_true",
                        help="with --compare: gate the layout search "
                             "against greedy padding over the seeded "
                             "corpus (never worse, >= 3 strict wins)")
    parser.add_argument("--number", type=int, default=None,
                        help="write BENCH_<number>.json instead of "
                             "auto-numbering")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="exit 1 if the --compare aggregate speedup "
                             "falls below this factor")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per case in --compare mode "
                             "(best-of; default 3)")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out)
    if not out_dir.is_dir():
        print(f"error: --out {out_dir} is not a directory", file=sys.stderr)
        return 2
    if args.predict and not args.compare:
        print("error: --predict requires --compare", file=sys.stderr)
        return 2
    if args.optimize and not args.compare:
        print("error: --optimize requires --compare", file=sys.stderr)
        return 2
    if args.predict and args.optimize:
        print("error: --predict and --optimize are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.compare:
        if args.predict:
            return predict_compare_main(args, out_dir)
        if args.optimize:
            return optimize_compare_main(args, out_dir)
        return compare_main(args, out_dir)
    benchmarks = [b.strip() for b in args.benchmarks.split(",") if b.strip()]

    obs.reset()
    obs.enable()
    spec = parse_spec({
        "name": "bench-snapshot",
        "benchmarks": benchmarks,
        "heuristics": ["pad"],
        "caches": [{"size": "8K", "line": 32}, {"size": "16K", "line": 32}],
        "seed": 1998,
    })
    plan = compile_plan(spec)

    with tempfile.TemporaryDirectory(prefix="bench-snapshot-") as tmp:
        workdir = pathlib.Path(tmp) / "campaign"
        coordinator = Coordinator(plan, workdir, jobs=max(1, args.jobs))
        cold, cold_s = timed(lambda: coordinator.run())
        if not cold.ok:
            print("error: cold campaign had failures; refusing to "
                  "snapshot a broken run", file=sys.stderr)
            return 1

        resumer = Coordinator(plan, workdir, jobs=max(1, args.jobs))
        warm, warm_s = timed(lambda: resumer.run(resume=True))
        if warm.cached != len(plan.items):
            print(f"error: resume re-simulated items "
                  f"({warm.cached}/{len(plan.items)} cached)",
                  file=sys.stderr)
            return 1

        store = CrashSafeStore(coordinator.tier_path)
        try:
            runner = Runner(store=store)

            def run_all():
                for item in plan.items:
                    r = item.request
                    runner.run(
                        r.program, heuristic=r.heuristic, cache=r.cache,
                        size=r.size, pad_cache=r.pad_cache,
                        m_lines=r.m_lines, max_outer=r.max_outer,
                        seed=r.seed,
                    )

            _, disk_pass_s = timed(run_all)
            _, memo_pass_s = timed(run_all)
        finally:
            store.close()

    snap = obs.snapshot()
    items = len(plan.items)
    document = {
        "schema": 1,
        "label": args.label,
        "campaign": plan.campaign_id,
        "plan": plan.digest,
        "benchmarks": benchmarks,
        "items": items,
        "cold": {
            "duration_s": round(cold_s, 6),
            "items_per_s": round(items / cold_s, 3) if cold_s else None,
        },
        "resume": {
            "duration_s": round(warm_s, 6),
            "cached": warm.cached,
            "items_per_s": round(items / warm_s, 3) if warm_s else None,
        },
        "runner": {
            "disk_pass_s": round(disk_pass_s, 6),
            "memo_pass_s": round(memo_pass_s, 6),
        },
        "tiers": {
            "sqlite_hits": counter_total(
                snap, "repro_runner_memo_hits_total", tier="sqlite"),
            "memory_hits": counter_total(
                snap, "repro_runner_memo_hits_total", tier="memory"),
            "tier_lookups_hit": counter_total(
                snap, "repro_campaign_tier_lookups_total", outcome="hit"),
            "tier_lookups_miss": counter_total(
                snap, "repro_campaign_tier_lookups_total", outcome="miss"),
            "tier_quarantined": counter_total(
                snap, "repro_campaign_tier_quarantined_total"),
        },
        "campaign_counters": {
            "commits": sum(
                counter_total(snap, "repro_engine_outcomes_total",
                              status=status)
                for status in ("ok", "degraded", "rolled_back")
            ),
            "leases": counter_total(snap, "repro_engine_attempts_total"),
            "retries": counter_total(snap, "repro_engine_retries_total"),
            "fallbacks": counter_total(
                snap, "repro_engine_fallbacks_total"),
        },
    }
    if args.number is not None:
        path = out_dir / f"BENCH_{args.number}.json"
    else:
        path = next_snapshot_path(out_dir)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    print(f"  cold:   {items} items in {cold_s:.2f}s "
          f"({document['cold']['items_per_s']}/s)")
    print(f"  resume: all cached in {warm_s:.2f}s")
    print(f"  runner: disk pass {disk_pass_s:.3f}s, "
          f"memo pass {memo_pass_s:.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
