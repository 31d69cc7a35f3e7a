"""Traced profile of one request: ``Runner.run("swim", "pad")`` on 16K 2-way.

Times the request untraced and with the benchmark's spans installed,
alternating, and prints each layer's share of the traced request (median
of ``--repeats`` fresh runners each).  Run from the repository root::

    python3 perfbench/profile.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path.cwd()


def _request(runner):
    from repro.cache.config import base_cache

    return runner.run("swim", "pad", base_cache().with_associativity(2))


def profile(repeats: int) -> dict:
    """Untraced and traced runs of the request, alternating."""
    import tracer as tracing
    from repro.experiments.runner import Runner

    _request(Runner())  # warm-up: lazy imports, first JIT compiles
    tracer = tracing.install(tracing.Tracer())
    untraced, traced, layers = [], [], {}
    try:
        for index in range(2 * repeats):
            runner = Runner()
            if index % 2 == 0:
                start = time.perf_counter()
                _request(runner)
                untraced.append(time.perf_counter() - start)
                continue
            tracer.reset()
            tracer.enabled = True
            with tracer.span("request"):
                _request(runner)
            tracer.enabled = False
            traced.append(tracer.total_s["request"])
            by_layer = {}
            for name, seconds in tracer.self_s.items():
                layer = tracing.LAYER_OF.get(name, name)
                by_layer[layer] = by_layer.get(layer, 0.0) + seconds
            for layer, seconds in by_layer.items():
                layers.setdefault(layer, []).append(seconds)
    finally:
        tracer.uninstall()
    wall = statistics.median(traced)
    seconds = {k: statistics.median(v) for k, v in layers.items()}
    ranked = sorted(seconds.items(), key=lambda kv: -kv[1])
    return {
        "request": 'Runner.run("swim", "pad") on 16K 2-way',
        "repeats": repeats,
        "untraced_s": statistics.median(untraced),
        "traced_s": wall,
        "layer_s": dict(ranked),
        "layer_share": {k: v / wall for k, v in ranked},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(profile(args.repeats), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
