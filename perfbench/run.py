"""The repository's benchmark: one command, four workloads, one schema.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first measures the workload untraced, then installs the
benchmark's spans (:mod:`tracer`) and measures it again, and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; earlier lines carry sample counts and workload properties.
Metric names, units and definitions are in ``perfbench/README.md``.

The program is built from the checkout's ``src/``; a directory without
it is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import threading
import time

import workloads

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench"
#: fresh processes timed for ``setup_s`` (it reports their median)
SETUP_REPEATS = 11
MIN_PASSES = 3
#: serve classes that report a p99 (and so need enough answers for it)
P99_CLASSES = ("simulate", "pad")

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("rps", "1/s"), ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"), ("ok_share", "fraction"),
)


def fail(message: str, code: int = 2) -> "NoReturn":  # noqa: F821
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_seconds() -> float:
    """``run_seconds`` of ``BENCHMARK.json``: the benchmark's one run length."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return float(bench["run_seconds"])


def locate_program() -> None:
    """Put the checkout's ``src/`` on the import path, or exit 2."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program sources under {ROOT / 'src'}; run from the "
             "repository root")
    sys.path.insert(0, str(ROOT / "src"))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# -- resident memory ----------------------------------------------------------

class RssSampler(threading.Thread):
    """Peak resident memory of this process plus its descendants.

    Set-up timing children are not the workload's memory: sampling is
    held off while one lives (:meth:`paused`).
    """

    def __init__(self, interval: float = 0.1):
        super().__init__(name="perfbench-rss", daemon=True)
        self.interval = interval
        self.peak_kb = 0
        self._stop_event = threading.Event()
        self._lock = threading.Lock()
        self._paused = False

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.sample()

    def stop(self) -> float:
        """Stop sampling; returns the peak in MB."""
        self._stop_event.set()
        self.join()
        self.sample()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self.peak_kb, own) / 1024.0

    def sample(self) -> None:
        with self._lock:
            if self._paused:
                return
            total = sum(_rss_kb(pid) for pid in _process_tree(os.getpid()))
            self.peak_kb = max(self.peak_kb, total)

    @contextlib.contextmanager
    def paused(self):
        with self._lock:
            self._paused = True
        try:
            yield
        finally:
            self._paused = False


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _process_tree(pid: int) -> list:
    out, todo = [], [pid]
    while todo:
        current = todo.pop()
        out.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    todo.extend(int(child) for child in handle.read().split())
            except OSError:
                pass
    return out


# -- set-up ---------------------------------------------------------------------

def setup_only(workload: str, seed: int) -> int:
    """Child side of the set-up timing: set up, say READY, tear down."""
    locate_program()
    pins = workloads.load_pins()
    instance = workloads.WORKLOADS[workload](ROOT, seed, pins,
                                             SCRATCH / f"setup-{os.getpid()}")
    instance.setup()
    print("READY", flush=True)
    instance.teardown()
    return 0


def time_setup(workload: str, seed: int) -> float:
    """Seconds from process start to ready, in one fresh process."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = None
        for line in child.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - start
                break
        child.stdout.read()
        code = child.wait(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if ready is None or code != 0:
        fail(f"set-up of {workload} failed (exit {code})", 1)
    return ready


# -- measuring -------------------------------------------------------------------

def measure(instance, seconds: float, tracer=None, need_p99: bool = True,
            setup=None):
    """Blocks of answers for about ``seconds``, and set-up times.

    A new block starts only if it is expected to end within ``seconds``,
    after at least :data:`MIN_PASSES` blocks.  With ``need_p99`` a serve
    run goes on until every class that reports a p99 has 1000 untraced
    answers, up to three times ``seconds`` (six when tracing).  With
    ``tracer``, every other block is traced, so traced and untraced blocks
    see the same machine.

    ``setup()``, when given, times one fresh set-up.  The host's speed
    drifts over tens of seconds, so the :data:`SETUP_REPEATS` set-ups are
    spread between the blocks in step with the run's progress; their time
    does not count against ``seconds``.
    """
    blocks, setups = [], []
    cap = 3 * seconds * (2 if tracer is not None else 1)
    t0 = time.perf_counter()
    aside = 0.0  # seconds spent timing set-ups

    def time_setups(due: int) -> None:
        nonlocal aside
        while setup is not None and len(setups) < min(due, SETUP_REPEATS):
            start = time.perf_counter()
            setups.append(setup())
            aside += time.perf_counter() - start

    while True:
        time_setups(round(SETUP_REPEATS
                          * (time.perf_counter() - t0 - aside) / seconds))
        traced = tracer is not None and len(blocks) % 2 == 1
        if tracer is not None:
            _set_tracing(instance, tracer, traced)
            with tracer.span("pass"):
                block = instance.block()
            _set_tracing(instance, tracer, False)
        else:
            block = instance.block()
        block.traced = traced
        blocks.append(block)
        elapsed = time.perf_counter() - t0 - aside
        plain = [b for b in blocks if not b.traced]
        if len(plain) < MIN_PASSES or (tracer and len(plain) > len(blocks) / 2):
            continue
        if elapsed + median([b.wall for b in blocks]) <= seconds:
            continue
        if need_p99 and elapsed < cap and not _p99_ready(plain):
            continue
        time_setups(SETUP_REPEATS)
        return blocks, setups


def _set_tracing(instance, tracer, on: bool) -> None:
    from repro.obs import runtime as obs

    tracer.enabled = on
    if not instance.owns_metrics:
        # the program's counters (and engine workers' span counters,
        # which ride its metrics snapshots) count traced blocks only
        (obs.enable if on else obs.disable)()


def _class_samples(blocks) -> dict:
    """Serve latencies by reported class (``/v1/lint`` counts as pad)."""
    merged = {}
    for block in blocks:
        for cls, values in block.classes.items():
            merged.setdefault("pad" if cls == "lint" else cls, []).extend(values)
    return merged


def _p99_ready(blocks) -> bool:
    """Every serve class with a p99 has enough answers (batch: always)."""
    samples = _class_samples(blocks)
    return not samples or all(
        len(samples.get(cls, ())) >= workloads.P99_MIN_SAMPLES
        for cls in P99_CLASSES
    )


def end_to_end(blocks, setups, peak_mb) -> dict:
    walls = [b.wall for b in blocks]
    latencies = [lat for b in blocks for lat in b.latencies]
    attempted = sum(b.attempted for b in blocks)
    ok = sum(b.ok for b in blocks)
    values = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "rps": attempted / sum(walls) if sum(walls) else 0.0,
        "p50_ms": percentile(latencies, 0.5) * 1000,
        "peak_rss_mb": peak_mb,
        "ok_share": ok / attempted if attempted else 0.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def class_latencies(blocks, warn: bool = True) -> dict:
    """Serve per-class p50/p99 (ms) with sample counts."""
    out = {}
    for cls, values in sorted(_class_samples(blocks).items()):
        entry = {"samples": len(values),
                 "p50_ms": percentile(values, 0.5) * 1000}
        if cls in P99_CLASSES:
            entry["p99_ms"] = percentile(values, 0.99) * 1000
            if warn and len(values) < workloads.P99_MIN_SAMPLES:
                print(f"perfbench: warning: {cls} has {len(values)} samples, "
                      "too few for p99", file=sys.stderr)
        out[cls] = entry
    return out


def summarize(blocks) -> tuple:
    attempted = sum(b.attempted for b in blocks)
    failed = attempted - sum(b.ok for b in blocks)
    errors = [e for b in blocks for e in b.errors]
    return attempted, failed, errors


def load_pins():
    try:
        return workloads.load_pins()
    except (OSError, ValueError) as exc:
        fail(f"correctness pins do not load: {exc}")


def collect(workload: str, seed: int, seconds: float, trace: bool,
            shrink=None) -> dict:
    """Set up, measure and check one workload; returns the run's report.

    ``trace`` installs the spans (disabled) before set-up and traces
    every other block.  ``shrink(instance)``, when given, cuts the
    request set down after set-up (the self-check's tiny runs).
    """
    from repro.obs import runtime as obs

    pins = load_pins()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())
    instance = workloads.WORKLOADS[workload](
        ROOT, seed, pins, SCRATCH / f"{workload}-{os.getpid()}")
    try:
        instance.setup()
        if shrink is not None:
            shrink(instance)
        instance.warm()
        if tracer is not None:
            obs.reset()  # count the measured blocks only
        sampler = RssSampler()
        sampler.start()

        def setup() -> float:
            with sampler.paused():
                return time_setup(workload, seed)

        blocks, setups = measure(instance, seconds, tracer,
                                 need_p99=shrink is None,
                                 setup=None if trace else setup)
        peak_mb = sampler.stop()
    finally:
        instance.teardown()
        if tracer is not None:
            tracer.uninstall()
    plain = [b for b in blocks if not b.traced]
    attempted, failed, errors = summarize(blocks)
    info = {"workload": workload, "seed": seed,
            "block_walls": [round(b.wall, 4) for b in plain],
            "answers": sum(b.attempted for b in plain),
            "degraded": sum(b.degraded for b in plain),
            "latency_samples": sum(len(b.latencies) for b in plain),
            "setup_samples": len(setups)}
    if workload == "serve":
        info["classes"] = class_latencies(plain, warn=shrink is None)
        info.update(instance.properties(plain))
    report = {"info": info}
    if not trace:
        report["metrics"] = end_to_end(blocks, setups, peak_mb)
    else:
        import layers

        traced = [b for b in blocks if b.traced]
        report["metrics"] = layers.per_layer(instance, plain, traced, tracer,
                                             info)
        report["properties"] = layers.properties(report["metrics"])
        coverage = report["metrics"]["trace.coverage"]["value"]
        if (shrink is None and not instance.owns_metrics
                and coverage < layers.MIN_COVERAGE):
            print(f"perfbench: warning: layer self times cover only "
                  f"{coverage:.3f} of the traced wall time on {workload} "
                  f"(want at least {layers.MIN_COVERAGE})", file=sys.stderr)
        SCRATCH.mkdir(exist_ok=True)
        tracer.dump(SCRATCH / f"spans-{workload}-{seed}.jsonl")
    report.update(correct=not errors, attempted=attempted, failed=failed,
                  errors=errors)
    return report


def run(args) -> int:
    locate_program()
    if args.workload in workloads.HELD_BACK:
        print(f"perfbench: note: {args.workload} is not in BENCHMARK.json: "
              f"{workloads.HELD_BACK[args.workload]}", file=sys.stderr)
    report = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({key: report[key] for key in ("info", "properties")
                      if key in report}))
    for error in report["errors"][:20]:
        print(f"perfbench: wrong answer: {error}", file=sys.stderr)
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_check:
        locate_program()
        import selfcheck

        return selfcheck.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    if args.seconds is None:
        args.seconds = run_seconds()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
