"""The traced run and the per-layer metrics it yields.

Layer times are the *self* times of the benchmark's spans (see
:mod:`tracer`), reported per block — one pass of a batch workload, or
:data:`workloads.SERVE_BLOCK` serve answers — so they compare with
``wall_s``.  Counts come from the spans' boundaries and from the
program's own ``repro_*`` counters, which engine workers merge back over
the result pipe.
"""

from __future__ import annotations

import statistics

import tracer as tracing
import workloads

#: (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("cache.dm_s", "s"), ("cache.sa_s", "s"), ("cache.accesses", "count"),
    ("cache.ns_per_access", "ns"), ("cache.sa_access_share", "fraction"),
    ("addrgen.s", "s"), ("addrgen.accesses", "count"),
    ("jit.compiled", "count"), ("jit.deopts", "count"),
    ("jit.compiled_share", "fraction"),
    ("guard.s", "s"), ("guard.sanitize_s", "s"), ("guard.checks", "count"),
    ("guard.rollbacks", "count"),
    ("padding.s", "s"), ("padding.calls", "count"),
    ("predict.s", "s"), ("predict.requests", "count"),
    ("predict.bailout_share", "fraction"), ("predict.fold_ratio", "ratio"),
    ("memo.lookup_s", "s"), ("memo.lookups", "count"),
    ("memo.hit_share", "fraction"), ("memo.hit_share.analytic", "fraction"),
    ("memo.hit_share.memory", "fraction"),
    ("engine.overhead_s", "s"), ("engine.queue_wait_s", "s"),
    ("engine.retries", "count"), ("engine.fallbacks", "count"),
    ("store.put_s", "s"), ("store.get_s", "s"),
    ("frontend.s", "s"), ("frontend.calls", "count"),
    ("lint.s", "s"),
    ("optimize.s", "s"), ("optimize.candidates", "count"),
    ("optimize.predict_scored_share", "fraction"),
    ("serve.batch_wait_ms", "ms"), ("serve.queue_wait_ms", "ms"),
    ("serve.degraded_share", "fraction"), ("serve.rejected_share", "fraction"),
    ("serve.simulate_repeat_share", "fraction"),
    ("serve.simulate_p50_ms", "ms"), ("serve.simulate_p99_ms", "ms"),
    ("serve.pad_p50_ms", "ms"), ("serve.pad_p99_ms", "ms"),
    ("serve.optimize_p50_ms", "ms"),
    ("runner.self_s", "s"), ("kernel.build_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.coverage", "fraction"),
)

#: share of the traced wall time the layers' self times should cover on
#: the workloads that report coverage (not serve)
MIN_COVERAGE = 0.9


def _program_counters(registry) -> dict:
    """Sums of the program's own counters and histograms, by family."""
    out = {}
    for name, kind, _help, instruments in registry.families():
        if kind == "counter":
            out[name] = sum(inst.value for inst in instruments)
            for inst in instruments:
                for label, value in inst.labels.items():
                    key = f"{name}{{{label}={value}}}"
                    out[key] = out.get(key, 0.0) + inst.value
        elif kind == "histogram":
            out[f"{name}.sum"] = sum(inst.sum for inst in instruments)
            out[f"{name}.count"] = sum(inst.count for inst in instruments)
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(instance, plain, blocks, t, info: dict) -> dict:
    """Per-layer metrics of the traced ``blocks``; ``plain`` are untraced.

    Span tables count traced blocks only.  The program's own counters do
    too, unless the program keeps its metrics on throughout (the server),
    in which case they cover every block.
    """
    from repro.obs import runtime as obs

    t.absorb_workers(obs.registry())
    program = _program_counters(obs.registry())
    n = len(blocks) or 1
    n_program = (len(blocks) + len(plain) if instance.owns_metrics else n) or 1
    jobs = workloads.JOBS

    def self_s(*names) -> float:
        """Self seconds, parent plus workers (summed over processes)."""
        return sum(t.self_s[x] + t.worker_self_s[x] for x in names)

    def calls(*names) -> float:
        return sum(t.calls[x] + t.worker_calls[x] for x in names)

    counts = t.counts
    accesses = counts["cache.accesses"]
    # The engine's own cost: run_many time not spent in workers' Runner.run
    # (spawn, pipe, scheduling and tail idle), per worker slot.
    worker_busy = t.worker_total_s["runner.run"]
    overhead = t.self_s["engine.run_many"] - worker_busy / jobs
    compiled = program.get("repro_jit_compiled_total", 0.0)
    deopts = program.get("repro_jit_deopt_total", 0.0)
    hits = program.get("repro_runner_memo_hits_total", 0.0)
    lookups = hits + program.get("repro_runner_memo_misses_total", 0.0)
    every = blocks + plain
    answers = sum(b.attempted for b in every)
    classes = info.get("classes", {})
    traced_wall = statistics.median([b.wall for b in blocks])
    untraced_wall = statistics.median([b.wall for b in plain])

    # Coverage: span self times over the traced wall time.  Worker time
    # runs on ``jobs`` slots in parallel, so it counts per slot.  The
    # engine's residual (``overhead``) is what no span covers, so it is
    # left out.
    attributed = 0.0
    for name in set(t.self_s) | set(t.worker_self_s):
        if name in tracing.STRUCTURAL:
            continue
        attributed += t.self_s[name] + t.worker_self_s[name] / jobs
    wall_total = sum(b.wall for b in blocks)

    values = {
        "cache.dm_s": self_s("cache.dm") / n,
        "cache.sa_s": self_s("cache.sa") / n,
        "cache.accesses": accesses / n,
        "cache.ns_per_access": _share(self_s("cache.dm", "cache.sa"),
                                      accesses) * 1e9,
        "cache.sa_access_share": _share(counts["cache.sa_accesses"], accesses),
        "addrgen.s": self_s("addrgen") / n,
        "addrgen.accesses": counts["addrgen.accesses"] / n,
        "jit.compiled": compiled / n_program,
        "jit.deopts": deopts / n_program,
        "jit.compiled_share": _share(compiled, compiled + deopts),
        "guard.s": self_s("guard.check", "guard.sanitize") / n,
        "guard.sanitize_s": self_s("guard.sanitize") / n,
        "guard.checks":
            program.get("repro_guard_checks_total", 0.0) / n_program,
        "guard.rollbacks":
            program.get("repro_guard_rollbacks_total", 0.0) / n_program,
        "padding.s": self_s("padding.pad", "padding.padlite") / n,
        "padding.calls": calls("padding.pad", "padding.padlite") / n,
        "predict.s": self_s("predict") / n,
        "predict.requests": counts["predict.requests"] / n,
        "predict.bailout_share": _share(counts["predict.bailouts"],
                                        counts["predict.requests"]),
        "predict.fold_ratio": _share(counts["predict.accesses"],
                                     counts["predict.replayed"]),
        "memo.lookup_s": self_s("memo.lookup") / n,
        "memo.lookups": lookups / n_program,
        "memo.hit_share": _share(hits, lookups),
        "memo.hit_share.analytic": _share(
            program.get("repro_runner_memo_hits_total{tier=analytic}", 0.0),
            lookups),
        "memo.hit_share.memory": _share(
            program.get("repro_runner_memo_hits_total{tier=memory}", 0.0),
            lookups),
        "engine.overhead_s": overhead / n,
        "engine.queue_wait_s": _share(
            program.get("repro_engine_queue_wait_seconds.sum", 0.0),
            program.get("repro_engine_queue_wait_seconds.count", 0.0)),
        "engine.retries":
            program.get("repro_engine_retries_total", 0.0) / n_program,
        "engine.fallbacks":
            program.get("repro_engine_fallbacks_total", 0.0) / n_program,
        "store.put_s": self_s("store.put") / n,
        "store.get_s": self_s("store.get") / n,
        "frontend.s": self_s("frontend.parse", "frontend.lower") / n,
        "frontend.calls": calls("frontend.parse") / n,
        "lint.s": self_s("lint") / n,
        "optimize.s": self_s("optimize") / n,
        "optimize.candidates": counts["optimize.candidates"] / n,
        "optimize.predict_scored_share": _share(
            counts["optimize.scored_predict"], counts["optimize.candidates"]),
        "serve.batch_wait_ms": _share(counts["serve.batch_wait_s"],
                                      counts["serve.batch_jobs"]) * 1000,
        "serve.queue_wait_ms": _share(
            program.get("repro_serve_queue_wait_seconds.sum", 0.0),
            program.get("repro_serve_queue_wait_seconds.count", 0.0)) * 1000,
        "serve.degraded_share": _share(sum(b.degraded for b in every),
                                       answers),
        "serve.rejected_share": _share(sum(b.refused for b in every),
                                       answers),
        "serve.simulate_repeat_share": info.get("simulate_repeat_share", 0.0),
        "serve.simulate_p50_ms": classes.get("simulate", {}).get("p50_ms", 0.0),
        "serve.simulate_p99_ms": classes.get("simulate", {}).get("p99_ms", 0.0),
        "serve.pad_p50_ms": classes.get("pad", {}).get("p50_ms", 0.0),
        "serve.pad_p99_ms": classes.get("pad", {}).get("p99_ms", 0.0),
        "serve.optimize_p50_ms": classes.get("optimize", {}).get("p50_ms", 0.0),
        "runner.self_s": self_s("runner.run") / n,
        "kernel.build_s": self_s("kernel.build") / n,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": _share(attributed, wall_total)
        if not instance.owns_metrics else 0.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


#: workload property -> the per-layer metric it is read from
PROPERTIES = {
    "simulated_accesses_per_block": "cache.accesses",
    "sa_access_share": "cache.sa_access_share",
    "jit_compiled_per_block": "jit.compiled",
    "jit_deopts_per_block": "jit.deopts",
    "predict_bailout_share": "predict.bailout_share",
    "predict_fold_ratio": "predict.fold_ratio",
    "serve_simulate_repeat_share": "serve.simulate_repeat_share",
    "memo_hit_share": "memo.hit_share",
    "serve_degraded_share": "serve.degraded_share",
    "serve_rejected_share": "serve.rejected_share",
    "tracing_overhead_s": "trace.overhead_s",
    "layer_coverage": "trace.coverage",
}


def properties(metrics: dict) -> dict:
    """The measured facts later claims cite, beside the metrics."""
    return {name: metrics[source]["value"]
            for name, source in PROPERTIES.items()}
