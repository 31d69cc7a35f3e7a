"""The four workloads: their seeded inputs, how one block runs, and checks.

A workload answers *blocks* of requests.  ``sweep``, ``guarded`` and
``predict`` answer one pass over a fixed request set per block (the seed
only orders it); ``serve`` answers a block of :data:`SERVE_BLOCK` HTTP
answers from two closed-loop clients.  Every answer is checked against
the correctness pins (``pins.json``) before it counts as ok.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import pathlib
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: the program's own pools, sized to a two-core host
JOBS = 2

#: kernels of the batch workloads
SWEEP_KERNELS = ("appbt", "erle", "fftpde", "jacobi", "adi", "applu",
                 "apsi", "turb3d")
GUARDED_KERNELS = ("cgm", "su2cor", "wave5", "expl")
#: analyzable (kernel, heuristic) pairs, answered through tier 0
PREDICT_PAIRS = (
    ("adi", "original"), ("jacobi", "original"), ("rb", "original"),
    ("appsp", "original"), ("embar", "original"), ("doduc", "original"),
    ("dot", "original"), ("apsi", "original"), ("erle", "pad"),
    ("appbt", "pad"),
)
SERVE_PROGRAMS = ("dot", "adi", "doduc", "rb", "jacobi", "applu", "apsi",
                  "embar")
#: corpus kernels cheap enough for an interactive /v1/optimize
OPTIMIZE_KERNELS = ("transpose", "stencil5", "giveup-sweep", "triad-pow2")
OPTIMIZE_KNOBS = {"beam": 2, "budget": 8}

# The serve traffic below is assumed, not taken from a traffic record:
# no log of real callers exists.  It follows only the shape asked of the
# service (mostly simulate, the rest pad and lint, a little optimize); the
# shares, the Zipf exponent, the warm-up and the latency limits are
# choices.  The simulate repeat share a run reports follows from them.

#: serve traffic mix (assumed): class -> share of requests
SERVE_MIX = (("simulate", 0.55), ("pad", 0.215), ("lint", 0.215),
             ("optimize", 0.02))
#: Zipf exponent of the simulate keys' popularity (assumed)
ZIPF_S = 1.1
SERVE_BLOCK = 200
#: per-class latency limit (ms) past which a serve answer is not ok
LATENCY_LIMIT_MS = {"simulate": 2000.0, "pad": 500.0, "lint": 500.0,
                    "optimize": 5000.0}
#: serve answers each client sends before measuring (memo warm-up)
SERVE_WARMUP = 40
#: p99 needs ten samples beyond it
P99_MIN_SAMPLES = 1000

PINS_PATH = pathlib.Path(__file__).resolve().parent / "pins.json"


def caches():
    """The paper's 16K direct-mapped cache and its 2-way sibling."""
    from repro.cache.config import base_cache

    dm = base_cache()
    return {"dm": dm, "2way": dm.with_associativity(2)}


def run_key(mode: str, request) -> str:
    """Pin key for a simulation answer (``mode`` = ``sim``/``guarded``)."""
    from repro.experiments.runner import request_key

    return f"{mode}|{request_key(request)}"


def stats_fields(stats) -> dict:
    import dataclasses

    return dataclasses.asdict(stats)


def layout_digest(layout: dict) -> str:
    blob = json.dumps(layout, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_pins(path=PINS_PATH) -> dict:
    """The pinned answers; raises if the file is missing or malformed."""
    pins = json.loads(pathlib.Path(path).read_text())
    for section in ("runs", "pad", "lint", "optimize"):
        if not isinstance(pins.get(section), dict) or not pins[section]:
            raise ValueError(f"{path}: pins section {section!r} is empty")
    return pins


# -- request sets ----------------------------------------------------------------

def sweep_requests(runner):
    """kernel x {original, pad} x {16K DM, 16K 2-way}, as RunRequests."""
    out = []
    for kernel in SWEEP_KERNELS:
        for heuristic in ("original", "pad"):
            for cache in caches().values():
                out.append(runner.request_for(kernel, heuristic, cache))
    return out


def guarded_requests(runner):
    """``pad``/``padlite`` requests for ``--guard strict`` on 16K DM."""
    dm = caches()["dm"]
    return [
        runner.request_for(kernel, heuristic, dm)
        for kernel in GUARDED_KERNELS
        for heuristic in ("pad", "padlite")
    ]


def predict_requests(runner):
    return [
        runner.request_for(kernel, heuristic, cache)
        for kernel, heuristic in PREDICT_PAIRS
        for cache in caches().values()
    ]


def serve_simulate_requests(runner):
    return [
        runner.request_for(program, "original", cache)
        for program in SERVE_PROGRAMS
        for cache in caches().values()
    ]


def serve_sources(root: pathlib.Path) -> Dict[str, dict]:
    """name -> {source, cache} for the DSL kernels pad/lint/optimize use."""
    from repro.optimize.corpus import CORPUS

    sources = {}
    for path in sorted((root / "examples" / "kernels").glob("*.dsl")):
        sources[path.stem] = {"source": path.read_text(), "cache": {}}
    for kernel in CORPUS:
        sources[kernel.name] = {
            "source": kernel.source,
            "cache": {"size": kernel.cache_bytes, "line": kernel.line_bytes},
        }
    return sources


def seeded_order(items: list, seed: int, salt: str) -> list:
    """``items`` shuffled by the seed, 2-way requests first.

    The engine hands tasks out in input order, so the expensive 2-way
    runs go first to keep the tail of each pass short and steady; the
    seed orders requests within each class.
    """
    rng = random.Random(f"{seed}-{salt}")
    heavy = [r for r in items if r.cache.associativity > 1]
    light = [r for r in items if r.cache.associativity == 1]
    rng.shuffle(heavy)
    rng.shuffle(light)
    return heavy + light


def cheapest(requests):
    """A cheap request to warm a workload's code path with."""
    return min(requests, key=lambda r: r.program not in ("adi", "wave5"))


# -- results --------------------------------------------------------------------

@dataclass
class Block:
    """One block of answers."""

    wall: float
    latencies: List[float] = field(default_factory=list)  # seconds
    attempted: int = 0
    ok: int = 0
    errors: List[str] = field(default_factory=list)  # mismatches + failures
    classes: Dict[str, List[float]] = field(default_factory=dict)
    degraded: int = 0  # answered degraded (not ok, not wrong)
    refused: int = 0  # serve: 429/503 (not ok, not wrong)
    traced: bool = False  # measured with the benchmark's spans on
    simulate: int = 0  # serve: /v1/simulate answers
    repeats: int = 0  # serve: ... whose key had been asked before


def check_stats(pins: dict, key: str, stats) -> Optional[str]:
    """``None`` when ``stats`` equals its pin field by field, else why not."""
    pinned = pins["runs"].get(key)
    if pinned is None:
        return f"no pin for {key}"
    got = stats_fields(stats) if not isinstance(stats, dict) else stats
    for name, want in pinned.items():
        if got.get(name) != want:
            return f"{key}: {name} = {got.get(name)!r}, pinned {want!r}"
    return None


# -- batch workloads ------------------------------------------------------------

class Workload:
    """One workload: ``setup``, ``warm``, then ``block`` until measured."""

    name = ""
    #: whether the program keeps its own metrics on (the server does)
    owns_metrics = False

    def __init__(self, root: pathlib.Path, seed: int, pins: dict,
                 scratch: pathlib.Path):
        self.root, self.seed, self.pins, self.scratch = root, seed, pins, scratch
        self._passes = 0

    def teardown(self) -> None:
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


class SweepWorkload(Workload):
    """``run-all --jobs 2 --cache-dir <fresh>`` over the sweep request set."""

    name = "sweep"

    def setup(self) -> None:
        from repro.engine.core import EngineConfig, ExperimentEngine
        from repro.experiments.runner import Runner

        self.requests = sweep_requests(Runner())
        self.engine = ExperimentEngine(EngineConfig(jobs=JOBS))

    def warm(self) -> None:
        """Fork the engine once on a cheap request (lazy imports)."""
        self._run([cheapest(self.requests)], self.scratch / "warm")

    def block(self) -> Block:
        self._passes += 1
        order = seeded_order(self.requests, self.seed, f"sweep{self._passes}")
        return self._run(order, self.scratch / f"pass{self._passes}")

    def _run(self, requests, directory: pathlib.Path) -> Block:
        from repro.engine.journal import RunJournal
        from repro.engine.store import CrashSafeStore

        shutil.rmtree(directory, ignore_errors=True)
        started: Dict[str, float] = {}
        finished: Dict[str, float] = {}

        class TimedJournal(RunJournal):
            """The run-all journal, stamping when each run starts/ends."""

            def emit(self, event, **fields):
                if event == "start":
                    started.setdefault(fields["run"], time.perf_counter())
                elif event == "finish":
                    finished[fields["run"]] = time.perf_counter()
                super().emit(event, **fields)

        t0 = time.perf_counter()
        store = CrashSafeStore(directory / "results.json")
        with TimedJournal(directory / "journal.jsonl") as journal:
            outcomes = self.engine.run_many(requests, store=store,
                                            journal=journal)
        block = Block(wall=time.perf_counter() - t0)
        shutil.rmtree(directory, ignore_errors=True)
        for outcome in outcomes:
            block.attempted += 1
            key = outcome.key
            if key in started and key in finished:
                block.latencies.append(finished[key] - started[key])
            if outcome.status != "ok" or outcome.stats is None:
                block.errors.append(
                    f"{key}: status {outcome.status} ({outcome.error})"
                )
                continue
            problem = check_stats(self.pins, run_key("sim", outcome.request),
                                  outcome.stats)
            if problem:
                block.errors.append(problem)
            else:
                block.ok += 1
        return block


class _InProcessWorkload(Workload):
    """Shared pass loop for workloads answered one request after another
    through ``Runner.run``."""

    mode = "sim"

    def runner(self):
        from repro.experiments.runner import Runner

        return Runner()

    def context(self):
        import contextlib

        return contextlib.nullcontext()

    def degraded(self, runner) -> bool:
        """A right answer that did not come the way the workload asks."""
        return False

    def warm(self) -> None:
        self._run([cheapest(self.requests)])

    def block(self) -> Block:
        self._passes += 1
        order = list(self.requests)
        random.Random(f"{self.seed}-{self.name}{self._passes}").shuffle(order)
        return self._run(order)

    def _run(self, requests) -> Block:
        runner = self.runner()  # cold memo every pass
        block = Block(wall=0.0)
        t0 = time.perf_counter()
        with self.context():
            for request in requests:
                block.attempted += 1
                start = time.perf_counter()
                try:
                    stats = runner.run(
                        request.program, request.heuristic, request.cache,
                        pad_cache=request.pad_cache,
                    )
                except Exception as exc:  # a failed answer, not a crash
                    block.errors.append(
                        f"{request.program}/{request.heuristic}: "
                        f"{type(exc).__name__}: {exc}"
                    )
                    continue
                block.latencies.append(time.perf_counter() - start)
                problem = check_stats(self.pins, run_key(self.mode, request),
                                      stats)
                if problem:
                    block.errors.append(problem)
                elif self.degraded(runner):
                    block.degraded += 1
                else:
                    block.ok += 1
        block.wall = time.perf_counter() - t0
        return block


class GuardedWorkload(_InProcessWorkload):
    """``pad``/``padlite`` under ``--guard strict`` on 16K direct-mapped."""

    name = "guarded"
    mode = "guarded"

    def setup(self) -> None:
        from repro.experiments.runner import Runner
        from repro.guard.config import GuardConfig

        self.guard = GuardConfig(mode="strict")
        self.requests = guarded_requests(Runner())

    def context(self):
        from repro.guard import runtime as guard_runtime

        return guard_runtime.activated(self.guard)

    def degraded(self, runner) -> bool:
        return runner.last_guard is None  # the guard did not run


class PredictWorkload(_InProcessWorkload):
    """``Runner(predict="auto")``: every answer must come from tier 0."""

    name = "predict"

    def setup(self) -> None:
        from repro.experiments.runner import Runner

        self.requests = predict_requests(Runner())

    def runner(self):
        from repro.experiments.runner import Runner

        return Runner(predict="auto")

    def degraded(self, runner) -> bool:
        return runner.last_tier != "analytic"


# -- serve ------------------------------------------------------------------------

class ServeWorkload(Workload):
    """An in-process ``AnalysisServer`` driven by two closed-loop clients."""

    name = "serve"
    owns_metrics = True

    def __init__(self, root: pathlib.Path, seed: int, pins: dict,
                 scratch: pathlib.Path):
        super().__init__(root, seed, pins, scratch)
        self.server = None
        self._thread = None
        self.streams: List["_ClientStream"] = []
        #: simulate pin keys asked so far (repeat share)
        self.seen: set = set()
        self.seen_lock = threading.Lock()

    def setup(self) -> None:
        from repro.serve.batching import ServeConfig
        from repro.serve.server import create_server

        self.plan()
        self.server = create_server(
            ServeConfig(port=0, workers=JOBS, engine_jobs=JOBS)
        )
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            name="perfbench-serve", daemon=True,
        )
        self._thread.start()
        host, port = self.server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            health = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        if health.get("status") != "ok":
            raise RuntimeError(f"server not healthy: {health}")
        self.streams = [
            _ClientStream(self, index) for index in range(JOBS)
        ]

    def plan(self) -> None:
        """The simulate keys and DSL sources requests are drawn from."""
        from repro.experiments.runner import Runner

        names = {cache: name for name, cache in caches().items()}
        self.sim_keys = [
            (req.program, names[req.cache], run_key("sim", req))
            for req in serve_simulate_requests(Runner())
        ]
        self.sources = serve_sources(self.root)

    def mix(self, client: int, count: int) -> List[tuple]:
        """The first ``count`` requests client ``client`` would send."""
        stream = _RequestStream(self, client)
        return [stream.next() for _ in range(count)]

    def warm(self) -> None:
        self._drive(SERVE_WARMUP * JOBS)

    def block(self) -> Block:
        return self._drive(SERVE_BLOCK)

    def _drive(self, wanted: int) -> Block:
        """Run both clients until ``wanted`` answers are in; one block."""
        lock = threading.Lock()
        answers: List[Answer] = []
        stop = threading.Event()

        def client(stream: "_ClientStream"):
            while not stop.is_set():
                try:
                    answer = stream.send_next()
                except Exception as exc:  # a failed answer, not a crash
                    answer = Answer("error", 0.0, "wrong", False,
                                    f"{type(exc).__name__}: {exc}")
                with lock:
                    answers.append(answer)
                    if len(answers) >= wanted:
                        stop.set()

        threads = [
            threading.Thread(target=client, args=(s,), daemon=True)
            for s in self.streams
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        block = Block(wall=time.perf_counter() - t0)
        for answer in answers:
            block.attempted += 1
            block.latencies.append(answer.latency)
            block.classes.setdefault(answer.cls, []).append(answer.latency)
            block.ok += answer.outcome == "ok"
            block.degraded += answer.outcome == "degraded"
            block.refused += answer.outcome == "refused"
            if answer.cls == "simulate":
                block.simulate += 1
                block.repeats += answer.repeat
            if answer.error:
                block.errors.append(answer.error)
        return block

    def properties(self, blocks: List[Block]) -> dict:
        """Measured facts of a serve run, for claims to cite."""
        simulate = sum(b.simulate for b in blocks)
        return {
            "simulate_repeat_share": (
                sum(b.repeats for b in blocks) / simulate if simulate else 0.0
            ),
            "degraded": sum(b.degraded for b in blocks),
            "refused": sum(b.refused for b in blocks),
        }

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self._thread.join(timeout=10)
            self.server = None
        super().teardown()


class _RequestStream:
    """One client's seeded request sequence."""

    def __init__(self, workload: ServeWorkload, client: int):
        self.rng = random.Random(f"{workload.seed}-serve-{client}")
        # the seed decides which simulate keys are hot
        ranks = list(workload.sim_keys)
        random.Random(f"{workload.seed}-serve-ranks").shuffle(ranks)
        self.sim_keys = ranks
        self.sim_weights = [1.0 / (i + 1) ** ZIPF_S for i in range(len(ranks))]
        self.sources = sorted(workload.sources)
        self.optimize = list(OPTIMIZE_KERNELS)
        self.workload = workload
        self.classes = [c for c, _ in SERVE_MIX]
        self.class_weights = [w for _, w in SERVE_MIX]

    def next(self) -> tuple:
        """``(class, path, body, pin)`` of the next request."""
        cls = self.rng.choices(self.classes, self.class_weights)[0]
        if cls == "simulate":
            program, cache_name, key = self.rng.choices(
                self.sim_keys, self.sim_weights)[0]
            cache = caches()[cache_name]
            body = {"program": program, "heuristic": "original",
                    "cache": {"size": cache.size_bytes,
                              "line": cache.line_bytes,
                              "assoc": cache.associativity}}
            return cls, "/v1/simulate", body, key
        if cls == "optimize":
            name = self.rng.choice(self.optimize)
            entry = self.workload.sources[name]
            body = {"source": entry["source"], "cache": entry["cache"],
                    **OPTIMIZE_KNOBS}
            return cls, "/v1/optimize", body, name
        name = self.rng.choice(self.sources)
        entry = self.workload.sources[name]
        body = {"source": entry["source"], "cache": entry["cache"]}
        return cls, f"/v1/{cls}", body, name


@dataclass
class Answer:
    """One serve round trip: class, latency (s), outcome, and why."""

    cls: str
    latency: float
    outcome: str  # ok / slow / degraded / refused / wrong
    repeat: bool = False
    error: Optional[str] = None


class _ClientStream(_RequestStream):
    """A request stream that sends each request on a fresh connection.

    One connection per request, the way ``urllib`` or ``curl`` in a
    script or CI job calls the service.
    """

    def __init__(self, workload: ServeWorkload, client: int):
        super().__init__(workload, client)
        self.address = workload.server.address
        self.pins = workload.pins

    def send_next(self) -> "Answer":
        """One round trip, timed and checked."""
        cls, path, body, pin = self.next()
        repeat = False
        if cls == "simulate":
            with self.workload.seen_lock:
                repeat = pin in self.workload.seen
                self.workload.seen.add(pin)
        payload = json.dumps(body).encode()
        start = time.perf_counter()
        conn = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            conn.request("POST", path, body=payload,
                         headers={"Content-Type": "application/json",
                                  "Connection": "close"})
            response = conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            return Answer(cls, time.perf_counter() - start, "wrong", repeat,
                          f"{path}: {type(exc).__name__}: {exc}")
        finally:
            conn.close()
        latency = time.perf_counter() - start
        if status in (429, 503):
            return Answer(cls, latency, "refused", repeat)
        if status != 200:
            return Answer(cls, latency, "wrong", repeat,
                          f"{path} {pin}: HTTP {status}")
        answer = json.loads(data)
        if answer.get("degraded"):
            return Answer(cls, latency, "degraded", repeat)
        error = check_serve_answer(self.pins, cls, pin, answer)
        if error:
            return Answer(cls, latency, "wrong", repeat, error)
        if latency * 1000 > LATENCY_LIMIT_MS[cls]:
            return Answer(cls, latency, "slow", repeat)
        return Answer(cls, latency, "ok", repeat)


def check_serve_answer(pins: dict, cls: str, pin: str, answer: dict):
    """``None`` when a serve answer matches its pin, else why not."""
    if cls == "simulate":
        if answer.get("status") not in ("ok", "cached"):
            return f"simulate {pin}: status {answer.get('status')!r}"
        return check_stats(pins, pin, answer.get("stats") or {})
    want = pins[cls].get(pin)
    if want is None:
        return f"no {cls} pin for {pin}"
    got = summarize_answer(cls, answer)
    if got != want:
        return f"{cls} {pin}: {got} != pinned {want}"
    return None


def summarize_answer(cls: str, answer: dict) -> dict:
    """The pinned facts of a pad / lint / optimize answer."""
    if cls == "pad":
        return {"layout": layout_digest(answer["layout"]),
                "total_bytes": answer["total_bytes"]}
    if cls == "lint":
        rules: Dict[str, int] = {}
        for finding in answer["findings"]:
            rules[finding["rule"]] = rules.get(finding["rule"], 0) + 1
        return {"findings": len(answer["findings"]), "rules": rules}
    return {"layout": layout_digest(answer["layout"]),
            "conflicts": answer["winner"]["conflict_misses"],
            "total_bytes": answer["total_bytes"]}


WORKLOADS = {
    "sweep": SweepWorkload,
    "guarded": GuardedWorkload,
    "predict": PredictWorkload,
    "serve": ServeWorkload,
}

#: workloads left out of BENCHMARK.json, and why.  They still run, check
#: every answer and fail on a wrong one.
HELD_BACK = {
    "predict": "the analytic predictor answers apsi wrong (cold_misses "
               "37884, ReferenceCache 37968), so every run fails",
}
