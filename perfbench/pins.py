"""Regenerate ``pins.json``, the benchmark's expected answers.

Simulation answers are pinned with the implementation the benchmark does
*not* time: the reference simulator (``ReferenceCache``) fed by the plain
trace interpreter (``jit="off"``).  Guarded answers run the same way
under ``--guard strict``.  Serve pad, lint and optimize answers are
pinned by layout digest and finding or conflict counts.

Run from the repository root (takes a few minutes)::

    python3 perfbench/pins.py
"""

from __future__ import annotations

import json
import multiprocessing
import pathlib
import sys

ROOT = pathlib.Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (sibling module; perfbench/ is on sys.path)


def _reference(job):
    mode, request = job
    from repro.experiments.runner import Runner
    from repro.guard import runtime as guard_runtime
    from repro.guard.config import GuardConfig

    guard = GuardConfig(mode="strict") if mode == "guarded" else None
    runner = Runner(jit="off")
    with guard_runtime.activated(guard):
        stats = runner.run(
            request.program, request.heuristic, request.cache,
            size=request.size, pad_cache=request.pad_cache,
            m_lines=request.m_lines, max_outer=request.max_outer,
            seed=request.seed, simulator="reference",
        )
    return workloads.run_key(mode, request), workloads.stats_fields(stats)


def simulation_jobs():
    from repro.experiments.runner import Runner

    runner = Runner()
    jobs = {}
    for request in (
        workloads.sweep_requests(runner)
        + workloads.predict_requests(runner)
        + workloads.serve_simulate_requests(runner)
    ):
        jobs[workloads.run_key("sim", request)] = ("sim", request)
    for request in workloads.guarded_requests(runner):
        jobs[workloads.run_key("guarded", request)] = ("guarded", request)
    return list(jobs.values())


def serve_pins() -> dict:
    from repro.serve import handlers, schemas

    pins = {"pad": {}, "lint": {}, "optimize": {}}
    for name, entry in workloads.serve_sources(ROOT).items():
        body = {"source": entry["source"], "cache": entry["cache"]}
        pins["pad"][name] = workloads.summarize_answer(
            "pad", handlers.handle_pad(schemas.validate_pad(dict(body))))
        pins["lint"][name] = workloads.summarize_answer(
            "lint", handlers.handle_lint(schemas.validate_lint(dict(body))))
        if name in workloads.OPTIMIZE_KERNELS:
            request = schemas.validate_optimize(
                dict(body, **workloads.OPTIMIZE_KNOBS))
            pins["optimize"][name] = workloads.summarize_answer(
                "optimize", handlers.handle_optimize(request))
    return pins


def main() -> int:
    jobs = simulation_jobs()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(workloads.JOBS) as pool:
        runs = dict(pool.imap_unordered(_reference, jobs))
    pins = {"runs": dict(sorted(runs.items())), **serve_pins()}
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True)
                                   + "\n")
    print(f"pinned {len(runs)} simulation answers and "
          f"{sum(len(pins[k]) for k in ('pad', 'lint', 'optimize'))} "
          f"serve answers -> {workloads.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
