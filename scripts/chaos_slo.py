#!/usr/bin/env python
"""Availability SLO storm for ``repro serve`` (CI resilience job).

Runs one self-healing serving instance under a seeded chaos schedule
(worker kills, stalls, injected errors, torn pipe writes, corrupted
payloads) while 40 concurrent clients hammer the full endpoint mix, and
a saboteur SIGSTOPs a warm engine worker mid-storm.  The gate:

1. **Availability** — at least 99% of responses are non-5xx.  Load
   shedding (429) and degraded answers are fine; silent failure is not.
2. **Honest degradation** — every degraded answer says ``degraded:
   true`` and carries ``error_bound_pct``; no answer is both degraded
   and missing its bound.
3. **Exactness** — every full-fidelity simulate answer (status ``ok`` /
   ``cached``) is byte-identical to the same request's answer from a
   fault-free reference instance.  Chaos may slow or degrade answers,
   never corrupt them.
4. **Self-healing** — the SIGSTOPped worker is detected as wedged and
   respawned (``repro_resilience_wedged_total`` and
   ``repro_resilience_respawns_total`` both move), and the pool is back
   to full capacity with a healthy supervisor when the storm ends.

Usage: PYTHONPATH=src python scripts/chaos_slo.py [--clients 40]
       [--requests 8] [--seed 7]
"""

import argparse
import json
import os
import pathlib
import signal
import sys
import threading
import time
import urllib.error
import urllib.request

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.chaos import parse_schedule  # noqa: E402
from repro.obs import runtime as obs  # noqa: E402
from repro.serve.batching import ServeConfig  # noqa: E402
from repro.serve.server import create_server  # noqa: E402

#: sustained worker-fault storm; seeded, so every run injects the same
#: faults at the same (request, attempt) points
SCHEDULE = {
    "seed": 7,
    "worker": {
        "kill": 0.04, "slow": 0.06, "slow_s": 0.15,
        "error": 0.04, "corrupt": 0.04, "torn": 0.03,
    },
}

SOURCE = (ROOT / "examples" / "kernels" / "matmul.dsl").read_text()

#: the simulate-program mix clients draw from (small, fast benchmarks)
PROGRAMS = [
    {"program": "dot", "heuristic": "original"},
    {"program": "dot", "heuristic": "pad"},
    {"program": "jacobi", "heuristic": "original", "size": 48},
    {"program": "jacobi", "heuristic": "pad", "size": 48},
    {"program": "mult", "heuristic": "original", "size": 24},
    {"program": "mult", "heuristic": "pad", "size": 24},
]


def post(base, path, payload, timeout=90):
    request = urllib.request.Request(
        f"{base}{path}", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def start_server(chaos):
    config = ServeConfig(
        port=0, workers=4, queue_depth=64, engine_jobs=4,
        timeout_s=60.0, engine_retries=1, heartbeat_s=0.2, chaos=chaos,
    )
    server = create_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.address
    return server, thread, f"http://{host}:{port}"


def stop_server(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def canonical(record):
    return json.dumps(record, sort_keys=True).encode()


def build_reference():
    """Fault-free answers for every request in the storm mix."""
    server, thread, base = start_server(chaos=None)
    try:
        reference = {}
        for item in PROGRAMS:
            code, body = post(base, "/v1/simulate", dict(item))
            if code != 200 or body.get("stats") is None:
                raise SystemExit(
                    f"FAIL [reference]: {item} answered {code}: {body}"
                )
            reference[canonical(item).decode()] = canonical(body["stats"])
        return reference
    finally:
        stop_server(server, thread)


class Storm:
    def __init__(self, base, reference, clients, requests_each, seed):
        self.base = base
        self.reference = reference
        self.clients = clients
        self.requests_each = requests_each
        self.seed = seed
        self.lock = threading.Lock()
        self.codes = {}
        self.violations = []
        self.degraded = 0
        self.exact_checked = 0

    def note(self, code):
        with self.lock:
            self.codes[code] = self.codes.get(code, 0) + 1

    def violation(self, message):
        with self.lock:
            self.violations.append(message)

    def client(self, index):
        # deterministic per-client request mix without the random module
        for n in range(self.requests_each):
            pick = (self.seed + index * 31 + n * 7) % 10
            if pick < 5:
                item = PROGRAMS[(index + n) % len(PROGRAMS)]
                code, body = post(self.base, "/v1/simulate", dict(item))
                self.note(code)
                if code == 200:
                    self.check_simulate(item, body)
            elif pick < 7:
                code, body = post(
                    self.base, "/v1/run",
                    {"items": [dict(p) for p in PROGRAMS[:2]]},
                )
                self.note(code)
                if code == 200:
                    for record in body.get("outcomes", []):
                        self.check_record(record)
            elif pick < 9:
                code, _ = post(self.base, "/v1/pad", {"source": SOURCE})
                self.note(code)
            else:
                code, _ = post(self.base, "/v1/lint", {"source": SOURCE})
                self.note(code)

    def check_simulate(self, item, body):
        self.check_record(body)
        if body.get("status") in ("ok", "cached") and body.get("stats"):
            want = self.reference[canonical(item).decode()]
            got = canonical(body["stats"])
            with self.lock:
                self.exact_checked += 1
            if got != want:
                self.violation(
                    f"committed result for {item} differs from the "
                    f"fault-free reference: {got!r} != {want!r}"
                )

    def check_record(self, record):
        status = record.get("status")
        if status == "degraded" and record.get("stats") is None:
            # the estimator path: must be flagged and bounded
            with self.lock:
                self.degraded += 1
            if record.get("degraded") is not True:
                self.violation(f"unflagged degraded answer: {record}")
            if "error_bound_pct" not in record:
                self.violation(f"degraded answer without bound: {record}")

    def run(self):
        threads = [
            threading.Thread(target=self.client, args=(i,), daemon=True)
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        return threads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=40)
    parser.add_argument("--requests", type=int, default=8,
                        help="requests per client (default 8)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--budget-pct", type=float, default=1.0,
                        help="max 5xx percentage (default 1.0)")
    args = parser.parse_args()

    print("building fault-free reference ...")
    reference = build_reference()
    print(f"ok [reference]: {len(reference)} exact answers pinned")

    schedule = dict(SCHEDULE, seed=args.seed)
    chaos = parse_schedule(schedule)
    print(f"chaos: {json.dumps(chaos.describe())}")
    server, thread, base = start_server(chaos)
    pool = server.service._pool
    try:
        storm = Storm(base, reference, args.clients, args.requests,
                      args.seed)
        clients = storm.run()

        # mid-storm sabotage: wedge one warm worker (alive, silent)
        time.sleep(1.0)
        with pool._lock:
            idle = list(pool._idle)
        if idle:
            os.kill(idle[0].proc.pid, signal.SIGSTOP)
            print(f"saboteur: SIGSTOPped worker pid {idle[0].proc.pid}")
        else:
            print("saboteur: no idle worker to wedge (pool saturated)")

        for client in clients:
            client.join(timeout=600)
        if any(c.is_alive() for c in clients):
            raise SystemExit("FAIL: storm clients did not finish")

        # brownout probe: force degraded mode and ask for a program the
        # memo tier has never seen, so gate 2 is exercised every run.
        # Brownout answers analyzable programs exactly (status
        # "analytic"), so the probe uses cgm, whose indirect gathers the
        # analytic predictor refuses: that reaches the estimator path.
        server.service.config.brownout = True
        code, body = post(base, "/v1/simulate", {"program": "cgm"})
        storm.note(code)
        if code != 200 or body.get("status") != "degraded":
            storm.violation(
                f"brownout probe was not degraded: {code} {body}"
            )
        else:
            storm.check_record(body)
        server.service.config.brownout = False

        # let the pool finish healing before the capacity check
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            health = pool.health()
            if (health["idle"] + health["leased"] == health["capacity"]
                    and health["healthy"]):
                break
            time.sleep(0.2)
        health = pool.health()
    finally:
        stop_server(server, thread)

    total = sum(storm.codes.values())
    fives = sum(n for code, n in storm.codes.items() if code >= 500)
    pct = 100.0 * fives / total if total else 0.0
    print(f"storm: {total} responses, codes={dict(sorted(storm.codes.items()))}")
    print(f"storm: {fives} server errors ({pct:.2f}%), "
          f"{storm.degraded} degraded answers, "
          f"{storm.exact_checked} exact answers checked byte-identical")

    failures = list(storm.violations)
    if pct > args.budget_pct:
        failures.append(
            f"availability: {pct:.2f}% 5xx exceeds the "
            f"{args.budget_pct}% budget"
        )
    if health["idle"] + health["leased"] != health["capacity"]:
        failures.append(
            f"pool did not recover to full capacity: {health}"
        )
    if not health["healthy"]:
        failures.append(f"supervisor unhealthy after the storm: {health}")
    if storm.degraded < 1:
        failures.append(
            "no degraded answer was observed (the brownout probe should "
            "have produced at least one)"
        )

    counters = {
        (c["name"]): c["value"]
        for c in obs.snapshot()["counters"]
        if c["name"].startswith("repro_resilience_")
    }
    print(f"resilience metrics: {counters}")
    if counters.get("repro_resilience_wedged_total", 0) < 1:
        failures.append(
            "the SIGSTOPped worker was never detected as wedged "
            "(repro_resilience_wedged_total did not move)"
        )
    if counters.get("repro_resilience_respawns_total", 0) < 1:
        failures.append(
            "no automatic respawn happened "
            "(repro_resilience_respawns_total did not move)"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("chaos SLO: all gates pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
