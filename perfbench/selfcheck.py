"""The benchmark's self-check: ``python3 perfbench/run.py --self-check``.

Runs every workload on a tiny request set, untraced and traced, and
checks that

* every metric name matches ``[A-Za-z0-9_.-]+``, is printed with its
  unit, and is exactly the list ``BENCHMARK.json`` declares;
* the correctness pins load and cover every request a workload sends;
* the seed changes the serve mix but not the pinned answers.

The ``predict`` workload is held out of ``BENCHMARK.json`` while the
program answers part of it wrong (:data:`workloads.HELD_BACK`), so the
self-check also runs one full ``predict`` pass, apsi included, and
reports every wrong tier-0 answer.

Exits 0 when every check passes and 1 otherwise: a wrong answer is a
program defect and fails the self-check until the program is fixed.
"""

from __future__ import annotations

import json
import re

import layers
import run as harness
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_SECONDS = 1.0


def shrink(instance) -> None:
    """Cut a workload to a tiny request set (a couple of answers)."""
    if instance.name == "serve":
        return  # the serve run is bounded by TINY_SECONDS instead
    instance.requests = instance.requests[:2]


def check_metrics(metrics: dict, declared: dict, where: str) -> list:
    problems = []
    if set(metrics) != set(declared):
        problems.append(
            f"{where}: metrics {sorted(set(metrics) ^ set(declared))} "
            "differ from BENCHMARK.json")
    for name, entry in metrics.items():
        if not NAME.fullmatch(name):
            problems.append(f"{where}: bad metric name {name!r}")
        if entry.get("unit") != declared.get(name):
            problems.append(f"{where}: {name} unit {entry.get('unit')!r}, "
                            f"declared {declared.get(name)!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    return problems


def pin_coverage(pins: dict) -> list:
    from repro.experiments.runner import Runner

    runner = Runner()
    wanted = [workloads.run_key("sim", r) for r in
              workloads.sweep_requests(runner)
              + workloads.predict_requests(runner)
              + workloads.serve_simulate_requests(runner)]
    wanted += [workloads.run_key("guarded", r)
               for r in workloads.guarded_requests(runner)]
    missing = [key for key in wanted if key not in pins["runs"]]
    for name in workloads.serve_sources(harness.ROOT):
        for cls in ("pad", "lint"):
            if name not in pins[cls]:
                missing.append(f"{cls}:{name}")
    missing += [f"optimize:{name}" for name in workloads.OPTIMIZE_KERNELS
                if name not in pins["optimize"]]
    return [f"no pin for {key}" for key in missing]


def seed_effect(pins: dict) -> list:
    """Two seeds: different serve mixes, one set of pinned answers."""
    problems = []
    mixes = []
    for seed in (1, 2):
        instance = workloads.ServeWorkload(harness.ROOT, seed, pins, None)
        instance.plan()
        mixes.append([(cls, pin) for cls, _path, _body, pin in
                      instance.mix(0, 200)])
    if mixes[0] == mixes[1]:
        problems.append("seeds 1 and 2 give the same serve mix")
    for cls, pin in set(mixes[0]) | set(mixes[1]):
        section = pins["runs"] if cls == "simulate" else pins[cls]
        if pin not in section:
            problems.append(f"seeded serve request {cls}:{pin} has no pin")
    return problems


def tier0_answers(pins: dict) -> list:
    """Wrong answers of one full ``predict`` pass (tier 0, apsi included)."""
    instance = workloads.PredictWorkload(harness.ROOT, 1, pins, None)
    instance.setup()
    return instance.block().errors


def main() -> int:
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if e2e != dict(harness.END_TO_END):
        problems.append("END_TO_END in run.py differs from BENCHMARK.json")
    if per_layer != dict(layers.PER_LAYER):
        problems.append("PER_LAYER in layers.py differs from BENCHMARK.json")
    listed = [w for w in workloads.WORKLOADS if w not in workloads.HELD_BACK]
    if [w["name"] for w in bench["workloads"]] != listed:
        problems.append("workloads differ from BENCHMARK.json")

    pins = harness.load_pins()
    print(f"pins: {len(pins['runs'])} simulation answers, "
          f"{len(pins['pad'])} pad, {len(pins['lint'])} lint, "
          f"{len(pins['optimize'])} optimize")
    problems += pin_coverage(pins)
    problems += seed_effect(pins)

    for workload in workloads.WORKLOADS:
        for trace, declared in ((False, e2e), (True, per_layer)):
            where = f"{workload} trace={int(trace)}"
            report = harness.collect(workload, 1, TINY_SECONDS, trace, shrink)
            problems += check_metrics(report["metrics"], declared, where)
            problems += [f"{where}: {e}" for e in report["errors"]]
            print(f"{where}: {report['attempted']} answers, "
                  f"{len(report['metrics'])} metrics, "
                  f"correct={report['correct']}")
    defects = tier0_answers(pins)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    for defect in defects:
        print(f"WRONG ANSWER (program defect): {defect}")
    if problems or defects:
        print(f"self-check failed: {len(problems)} benchmark problems, "
              f"{len(defects)} wrong tier-0 answers")
        return 1
    print("self-check passed")
    return 0
