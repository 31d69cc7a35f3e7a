"""The serve resilience surface: admission ladder, brownout, probes.

Each test builds its own small :class:`AnalysisServer` (or bare
:class:`AnalysisService`) so it can push the instance into one specific
degraded state — forced brownout, a chaos queue flood, a quarantined
engine pool, mid-shutdown — and assert what ``/readyz``, ``/livez`` and
the endpoints answer from there.
"""

import contextlib
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.chaos import parse_schedule
from repro.errors import QueueFullError
from repro.resilience.breaker import BreakerPolicy
from repro.serve.batching import AnalysisService, ServeConfig
from repro.serve.server import create_server

pytestmark = [pytest.mark.serve]

SOURCE = (
    "program clash\n"
    "param N = 512\n"
    "real*8 A(N, N), B(N, N)\n"
    "do j = 1, N\n"
    "  do i = 1, N\n"
    "    A(i, j) = A(i, j) + B(i, j)\n"
    "  end do\n"
    "end do\n"
    "end\n"
)

# Same kernel, triangular inner bound: the analytic predictor bails
# (symbolic_bounds), so brownout answers fall back to the estimator.
TRIANGULAR_SOURCE = SOURCE.replace("do i = 1, N", "do i = j, N")


@contextlib.contextmanager
def serving(config):
    server = create_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _get(server, path):
    host, port = server.address
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=15
        ) as resp:
            return resp.status, json.loads(resp.read().decode()), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode()), exc.headers


def _post(server, path, payload):
    host, port = server.address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, json.loads(resp.read().decode()), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode()), exc.headers


class TestBrownout:
    def test_forced_brownout_degrades_simulate_classes(self):
        config = ServeConfig(port=0, workers=2, engine_jobs=1, brownout=True)
        with serving(config) as server:
            # analyzable kernels upgrade to the exact analytic tier
            # instead of answering degraded
            code, body, _ = _post(
                server, "/v1/simulate", {"program": "jacobi", "size": 64}
            )
            assert code == 200
            assert body["status"] == "analytic"
            assert body["degraded"] is False
            assert body["error_bound_pct"] == 0.0
            assert body["stats"]["misses"] > 0

            code, body, _ = _post(
                server, "/v1/simulate",
                {"source": SOURCE, "heuristic": "pad"},
            )
            assert code == 200
            assert body["status"] == "analytic"
            assert body["degraded"] is False
            assert body["error_bound_pct"] == 0.0

            # a triangular bound defeats the predictor: the answer really
            # is degraded, with the bailout reason and an error band
            code, body, _ = _post(
                server, "/v1/simulate",
                {"source": TRIANGULAR_SOURCE, "heuristic": "pad"},
            )
            assert code == 200
            assert body["degraded"] is True
            assert body["bailout"] == "symbolic_bounds"
            assert body["error_bound_pct"] > 0.0  # 512x512 vs 16K aliases

            code, body, _ = _post(
                server, "/v1/run",
                {"items": [{"program": "dot"}, {"program": "jacobi"}]},
            )
            assert code == 200
            assert body["degraded"] is True  # the batch ran under brownout
            assert body["counts"].get("analytic", 0) + body["counts"].get(
                "cached", 0
            ) == 2

    def test_brownout_degrades_only_what_the_predictor_refuses(self):
        # the chaos SLO probe relies on this split: jacobi has an exact
        # analytic answer, cgm gathers through an index array (indirect)
        config = ServeConfig(port=0, workers=2, engine_jobs=1, brownout=True)
        with serving(config) as server:
            code, body, _ = _post(
                server, "/v1/simulate", {"program": "jacobi", "size": 40}
            )
            assert code == 200
            assert body["status"] == "analytic"
            assert body["degraded"] is False

            code, body, _ = _post(server, "/v1/simulate", {"program": "cgm"})
            assert code == 200
            assert body["status"] == "degraded"
            assert body["degraded"] is True
            assert body["stats"] is None
            assert body["bailout"] == "indirect"
            assert "error_bound_pct" in body

    def test_brownout_never_degrades_pad_or_lint(self):
        config = ServeConfig(port=0, workers=2, engine_jobs=1, brownout=True)
        with serving(config) as server:
            code, body, _ = _post(server, "/v1/pad", {"source": SOURCE})
            assert code == 200
            assert "degraded" not in body
            assert body["total_bytes"] > 0

    def test_memo_tier_beats_the_estimator_in_brownout(self):
        # a result simulated before brownout is still exact afterwards
        config = ServeConfig(port=0, workers=2, engine_jobs=1)
        with serving(config) as server:
            request = {"program": "dot", "heuristic": "original"}
            code, exact, _ = _post(server, "/v1/simulate", request)
            assert code == 200 and exact["status"] in ("ok", "cached")
            server.service.config.brownout = True
            code, browned, _ = _post(server, "/v1/simulate", request)
            assert code == 200
            assert browned["status"] == "cached"
            assert browned["stats"] == exact["stats"]

    def test_source_memo_beats_the_estimator_in_brownout(self):
        # the triangular kernel has no analytic answer, so without the
        # memo brownout would answer it with the estimator
        config = ServeConfig(port=0, workers=2, engine_jobs=1)
        request = {"source": TRIANGULAR_SOURCE, "heuristic": "pad"}
        with serving(config) as server:
            code, exact, _ = _post(server, "/v1/simulate", request)
            assert code == 200 and "degraded" not in exact
            server.service.config.brownout = True
            code, browned, _ = _post(server, "/v1/simulate", request)
            assert code == 200
            assert browned == exact

    def test_degraded_counter_counts_only_estimates(self):
        from repro.obs import runtime as obs

        def degraded_total():
            return sum(
                entry["value"] for entry in obs.snapshot()["counters"]
                if entry["name"] == "repro_serve_degraded_total"
            )

        config = ServeConfig(port=0, workers=2, engine_jobs=1)
        with serving(config) as server:
            code, _, _ = _post(server, "/v1/simulate", {"program": "dot"})
            assert code == 200
            server.service.config.brownout = True
            before = degraded_total()
            code, body, _ = _post(server, "/v1/simulate", {"program": "dot"})
            assert code == 200 and body["status"] == "cached"
            assert degraded_total() == before
            code, body, _ = _post(
                server, "/v1/simulate", {"program": "jacobi", "size": 40}
            )
            assert code == 200 and body["status"] == "analytic"
            assert degraded_total() == before
            code, body, _ = _post(server, "/v1/simulate", {"program": "cgm"})
            assert code == 200 and body["status"] == "degraded"
            assert degraded_total() == before + 1

    def test_readyz_reports_degraded_but_ready(self):
        config = ServeConfig(port=0, workers=2, engine_jobs=1, brownout=True)
        with serving(config) as server:
            code, body, _ = _get(server, "/readyz")
            assert code == 200
            assert body["ready"] is True
            assert body["status"] == "degraded"
            assert body["brownout"] is True
            assert body["resilience"]["supervised"] is True


class TestAdmissionLadder:
    def test_queue_flood_sheds_bulk_and_degrades_simulate(self):
        chaos = parse_schedule({"serve": {"queue_flood": 15}})
        config = ServeConfig(
            port=0, workers=2, engine_jobs=1, queue_depth=16, chaos=chaos,
        )
        with serving(config) as server:
            # 15 phantom + 0 real = rung 2 (shed_fraction 0.9 of 16)
            code, body, _ = _post(
                server, "/v1/run", {"items": [{"program": "dot"}]}
            )
            assert code == 429
            assert body["error"]["type"] == "QueueFullError"
            assert "shedding" in body["error"]["message"]

            # interactive pad still runs at full fidelity
            code, body, _ = _post(server, "/v1/pad", {"source": SOURCE})
            assert code == 200 and "degraded" not in body

            # simulate still answers: the analytic tier serves the exact
            # counts without touching the flooded engine queue
            code, body, _ = _post(
                server, "/v1/simulate", {"program": "jacobi", "size": 64}
            )
            assert code == 200 and body["status"] == "analytic"
            assert body["degraded"] is False

    def test_flood_below_shed_threshold_only_degrades(self):
        chaos = parse_schedule({"serve": {"queue_flood": 12}})
        config = ServeConfig(
            port=0, workers=2, engine_jobs=1, queue_depth=16, chaos=chaos,
        )
        with serving(config) as server:
            # rung 1: brownout but no shedding
            code, body, _ = _post(
                server, "/v1/run", {"items": [{"program": "dot"}]}
            )
            assert code == 200
            assert body["degraded"] is True

    def test_flood_at_queue_depth_rejects_everything(self):
        chaos = parse_schedule({"serve": {"queue_flood": 16}})
        config = ServeConfig(
            port=0, workers=2, engine_jobs=1, queue_depth=16, chaos=chaos,
        )
        with serving(config) as server:
            code, body, _ = _post(server, "/v1/pad", {"source": SOURCE})
            assert code == 429
            assert body["error"]["type"] == "QueueFullError"

    def test_ladder_unit_thresholds(self):
        service = AnalysisService(ServeConfig(queue_depth=64))
        assert service._ladder_rung(0) == 0
        assert service._ladder_rung(47) == 0
        assert service._ladder_rung(48) == 1   # 0.75 * 64
        assert service._ladder_rung(57) == 1
        assert service._ladder_rung(58) == 2   # 0.9 * 64 rounded up
        with pytest.raises(QueueFullError):
            raise QueueFullError("placeholder")  # taxonomy stays importable


class TestProbesUnderFailure:
    def test_livez_answers_under_pool_quarantine(self):
        config = ServeConfig(port=0, workers=2, engine_jobs=1)
        with serving(config) as server:
            service = server.service
            # trip every breaker: one slot, threshold 1
            service._pool._breaker_policy = BreakerPolicy(
                failure_threshold=1, cooldown_s=3600.0
            )
            service._pool._breakers.clear()
            [worker] = service._pool.lease(1)
            worker.proc.kill()
            worker.proc.join(timeout=10)
            service._pool.release([worker])
            assert service._pool.health()["breakers_open"] == 1

            code, body, _ = _get(server, "/livez")
            assert code == 200 and body["status"] == "alive"

            code, body, _ = _get(server, "/readyz")
            assert code == 200  # degraded, not dead: still routable
            assert body["status"] == "degraded"
            assert body["resilience"]["breakers_open"] == 1
            assert body["resilience"]["healthy"] is False

            # simulate answers from the analytic tier instead of 5xx
            code, body, _ = _post(
                server, "/v1/simulate", {"program": "jacobi", "size": 64}
            )
            assert code == 200 and body["status"] == "analytic"
            assert body["degraded"] is False

    def test_readyz_unready_when_queue_full(self):
        chaos = parse_schedule({"serve": {"queue_flood": 16}})
        config = ServeConfig(
            port=0, workers=2, engine_jobs=1, queue_depth=16, chaos=chaos,
        )
        with serving(config) as server:
            code, body, _ = _get(server, "/readyz")
            assert code == 503
            assert body["ready"] is False
            assert body["queue"]["full"] is True

    def test_probes_during_shutdown(self):
        config = ServeConfig(port=0, workers=2, engine_jobs=1)
        with serving(config) as server:
            server.service.stop()
            code, body, _ = _get(server, "/readyz")
            assert code == 503
            assert body["status"] == "stopped"
            code, body, _ = _get(server, "/livez")
            assert code == 200  # the process is still up
            code, body, _ = _post(
                server, "/v1/simulate", {"program": "dot"}
            )
            assert code == 500
            assert body["error"]["type"] == "ReproError"
            assert body["error"]["request_id"]


class TestRequestIds:
    def test_every_response_carries_a_request_id_header(self):
        config = ServeConfig(port=0, workers=2, engine_jobs=1)
        with serving(config) as server:
            _, _, headers = _get(server, "/livez")
            assert headers.get("X-Request-Id")
            code, body, headers = _post(server, "/v1/pad", {})
            assert code == 400
            assert body["error"]["request_id"] == headers["X-Request-Id"]

    def test_unexpected_exception_becomes_structured_500(self):
        config = ServeConfig(port=0, workers=2, engine_jobs=1)
        with serving(config) as server:
            service = server.service

            def explode(endpoint, request):
                raise ValueError("synthetic handler bug")

            service.submit = explode
            from repro.obs import runtime as obs

            code, body, headers = _post(
                server, "/v1/lint", {"source": SOURCE}
            )
            assert code == 500
            assert body["error"]["type"] == "ValueError"
            assert body["error"]["request_id"] == headers["X-Request-Id"]
            counters = {
                (c["name"], c["labels"].get("type")): c["value"]
                for c in obs.snapshot()["counters"]
            }
            assert counters[
                ("repro_serve_internal_errors_total", "ValueError")
            ] >= 1
