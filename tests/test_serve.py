"""The batched analysis service: schemas, handlers, backpressure, HTTP.

Three layers, tested separately the way they are built: the request
validators (pure), the endpoint handlers (pure), and the
:class:`~repro.serve.batching.AnalysisService` (threads, bounded queue,
micro-batcher).  The end-to-end HTTP tests live in
``test_serve_http.py`` so this file stays socket-free.
"""

import threading
import time

import pytest

from repro.cache.config import CacheConfig
from repro.errors import (
    PayloadTooLarge,
    QueueFullError,
    ReproError,
    RunTimeout,
    UsageError,
)
from repro.obs import runtime as obs
from repro.serve.batching import AnalysisService, ServeConfig
from repro.serve.schemas import (
    error_body,
    http_status_for,
    validate_lint,
    validate_pad,
    validate_run,
    validate_simulate,
)

DOT = """
program dot
param N = 200
real*8 X(N), Y(N), S(1)
do i = 1, N
  S(1) = S(1) + X(i) * Y(i)
end do
end
"""

CONFLICT = """
program conflict
param N = 256
real*8 A(N, N), B(N, N)
do j = 2, N - 1
  do i = 2, N - 1
    B(i, j) = A(i, j) + A(i - 1, j) + A(i + 1, j)
  end do
end do
end
"""


class TestSchemas:
    def test_pad_defaults(self):
        request = validate_pad({"source": DOT})
        assert request.heuristic == "pad"
        assert request.cache == CacheConfig(16384, 32, 1)
        assert not request.lint

    def test_cache_shorthand(self):
        request = validate_pad(
            {"source": DOT, "cache": {"size": "2K", "line": 4, "assoc": 2}}
        )
        assert request.cache == CacheConfig(2048, 4, 2)

    def test_unknown_field_rejected(self):
        with pytest.raises(UsageError, match="sauce"):
            validate_pad({"sauce": DOT})

    def test_missing_source_rejected(self):
        with pytest.raises(UsageError, match="source"):
            validate_pad({})

    def test_non_object_body_rejected(self):
        with pytest.raises(UsageError, match="JSON object"):
            validate_pad([1, 2, 3])

    def test_oversized_source_is_413(self):
        big = "x" * (256 * 1024 + 1)
        with pytest.raises(PayloadTooLarge):
            validate_pad({"source": big})

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(UsageError, match="heuristic"):
            validate_pad({"source": DOT, "heuristic": "magic"})

    def test_simulate_requires_exactly_one_kernel(self):
        with pytest.raises(UsageError, match="exactly one"):
            validate_simulate({})
        with pytest.raises(UsageError, match="exactly one"):
            validate_simulate({"source": DOT, "program": "mult"})

    def test_simulate_unknown_benchmark(self):
        with pytest.raises(UsageError, match="unknown benchmark"):
            validate_simulate({"program": "no-such-bench"})

    def test_simulate_program_ok(self):
        request = validate_simulate({"program": "mult", "size": 40})
        assert request.program == "mult"
        assert request.size == 40

    def test_run_items_validated(self):
        with pytest.raises(UsageError, match="non-empty"):
            validate_run({"items": []})
        with pytest.raises(UsageError, match="items\\[0\\]"):
            validate_run({"items": [{"heuristic": "pad"}]})
        request = validate_run(
            {"items": [{"program": "mult", "size": 40}]}
        )
        assert request.items[0]["heuristic"] == "pad"

    def test_run_item_ceiling_is_413(self):
        items = [{"program": "mult"}] * 257
        with pytest.raises(PayloadTooLarge):
            validate_run({"items": items})

    def test_timeout_bounds(self):
        with pytest.raises(UsageError, match="timeout_s"):
            validate_lint({"source": DOT, "timeout_s": 0})
        with pytest.raises(UsageError, match="timeout_s"):
            validate_lint({"source": DOT, "timeout_s": 301})
        assert validate_lint({"source": DOT, "timeout_s": 5}).timeout_s == 5.0

    def test_lint_selectors_accept_csv_and_list(self):
        by_csv = validate_lint({"source": DOT, "select": "C001, I"})
        by_list = validate_lint({"source": DOT, "select": ["C001", "I"]})
        assert by_csv.select == by_list.select == ("C001", "I")


class TestErrorBodies:
    def test_status_mapping(self):
        from repro.errors import (
            EngineError,
            FrontendError,
            GuardError,
            WorkerCrashed,
        )

        assert http_status_for(UsageError("x")) == 400
        assert http_status_for(FrontendError("x")) == 422
        assert http_status_for(GuardError("x")) == 409
        assert http_status_for(QueueFullError("x")) == 429
        assert http_status_for(PayloadTooLarge("x")) == 413
        assert http_status_for(RunTimeout("x")) == 504
        assert http_status_for(WorkerCrashed("x")) == 502
        assert http_status_for(EngineError("x")) == 502
        assert http_status_for(ReproError("x")) == 500
        assert http_status_for(ValueError("x")) == 500

    def test_body_shape_matches_cli_taxonomy(self):
        body = error_body(QueueFullError("busy"))["error"]
        assert body["type"] == "QueueFullError"
        assert body["http_status"] == 429
        assert body["exit_code"] == 2  # ServeError has no dedicated code
        body = error_body(RunTimeout("slow"))["error"]
        assert body["exit_code"] == 5
        assert body["http_status"] == 504


class TestHandlers:
    def test_pad_reports_layout_and_decisions(self):
        from repro.serve import handlers

        request = validate_pad(
            {"source": CONFLICT, "cache": {"size": "2K", "line": 8},
             "lint": True}
        )
        response = handlers.handle_pad(request)
        assert response["program"] == "conflict"
        assert set(response["layout"]) == {"A", "B"}
        assert response["total_bytes"] > 0
        assert "lint" in response

    def test_lint_finds_hazards_in_conflicting_kernel(self):
        from repro.serve import handlers

        request = validate_lint(
            {"source": CONFLICT, "cache": {"size": "2K", "line": 8}}
        )
        response = handlers.handle_lint(request)
        assert response["program"] == "conflict"
        assert isinstance(response["findings"], list)

    def test_simulate_source_reports_both_sides(self):
        from repro.serve import handlers

        request = validate_simulate(
            {"source": CONFLICT, "cache": {"size": "2K", "line": 8}}
        )
        response = handlers.handle_simulate_source(request)
        assert response["original"]["accesses"] > 0
        assert response["padded"]["accesses"] == response["original"]["accesses"]
        assert "improvement_pct" in response


def _service(**overrides):
    config = ServeConfig(
        workers=overrides.pop("workers", 2),
        queue_depth=overrides.pop("queue_depth", 8),
        timeout_s=overrides.pop("timeout_s", 30.0),
        engine_jobs=overrides.pop("engine_jobs", 1),
        **overrides,
    )
    return AnalysisService(config)


class TestAnalysisService:
    def test_submit_before_start_fails(self):
        service = _service()
        with pytest.raises(ReproError, match="not running"):
            service.submit("lint", validate_lint({"source": DOT}))

    def test_round_trip_and_health(self):
        service = _service()
        service.start()
        try:
            response = service.submit("lint", validate_lint({"source": DOT}))
            assert response["program"] == "dot"
            health = service.health()
            assert health["status"] == "ok"
            assert health["queued"] == 0
        finally:
            service.stop()
        assert service.health()["status"] == "stopped"

    def test_source_simulate_is_memoized(self):
        obs.enable()
        obs.reset()
        service = _service()
        service.start()
        try:
            request = validate_simulate({"source": DOT})
            first = service.submit("simulate-source", request)
            second = service.submit("simulate-source", request)
            assert first == second
            hits = sum(
                entry["value"]
                for entry in obs.snapshot()["counters"]
                if entry["name"] == "repro_runner_memo_hits_total"
            )
            assert hits >= 1
        finally:
            service.stop()

    def test_queue_full_is_429(self):
        service = _service(workers=1, queue_depth=2)
        service.start()
        release = threading.Event()
        started = threading.Event()

        def stall(job_request):
            started.set()
            release.wait(10)
            return {"ok": True}

        service._execute, original = stall, service._execute
        try:
            request = validate_lint({"source": DOT})
            threads = []
            rejected = []

            def client():
                try:
                    service.submit("lint", request)
                except QueueFullError:
                    rejected.append(1)
                except ReproError:
                    pass

            # one job occupies the worker; queue_depth more may wait
            for _ in range(6):
                thread = threading.Thread(target=client, daemon=True)
                thread.start()
                threads.append(thread)
            started.wait(5)
            deadline = time.monotonic() + 5
            while not rejected and time.monotonic() < deadline:
                time.sleep(0.01)
            assert rejected, "expected at least one 429 rejection"
        finally:
            release.set()
            service._execute = original
            service.stop()

    def test_deadline_is_504(self):
        service = _service(workers=1, timeout_s=0.2)
        service.start()
        release = threading.Event()

        def stall(job_request):
            release.wait(10)
            return {}

        service._execute = stall
        try:
            with pytest.raises(RunTimeout):
                service.submit("lint", validate_lint({"source": DOT}))
        finally:
            release.set()
            service.stop()

    def test_engine_batch_memoizes_repeats(self):
        obs.enable()
        obs.reset()
        service = _service(engine_jobs=2)
        service.start()
        try:
            request = validate_simulate({"program": "mult", "size": 32})
            first = service.submit("simulate-program", request)
            assert first["status"] in ("ok", "degraded")
            second = service.submit("simulate-program", request)
            assert second["status"] == "cached"
            assert second["stats"] == first["stats"]
        finally:
            service.stop()

    def test_run_batch_counts(self):
        service = _service(engine_jobs=2)
        service.start()
        try:
            request = validate_run(
                {
                    "items": [
                        {"program": "mult", "heuristic": "original",
                         "size": 32},
                        {"program": "mult", "heuristic": "pad", "size": 32},
                    ]
                }
            )
            response = service.submit("run", request)
            assert len(response["outcomes"]) == 2
            assert sum(response["counts"].values()) == 2
        finally:
            service.stop()

    def test_stop_is_idempotent(self):
        service = _service()
        service.start()
        service.stop()
        service.stop()


def _memo_counts():
    counts = {"hits": 0.0, "misses": 0.0}
    for entry in obs.snapshot()["counters"]:
        if entry["name"] == "repro_runner_memo_hits_total":
            counts["hits"] += entry["value"]
        elif entry["name"] == "repro_runner_memo_misses_total":
            counts["misses"] += entry["value"]
    return counts


class TestMemoFirst:
    def test_hits_never_reach_the_batcher(self):
        service = _service(engine_jobs=2)
        service.start()
        try:
            simulate = validate_simulate(
                {"program": "mult", "heuristic": "original", "size": 24}
            )
            run = validate_run({"items": [
                {"program": "mult", "heuristic": "original", "size": 24},
                {"program": "mult", "heuristic": "pad", "size": 24},
            ]})
            service.submit("simulate-program", simulate)
            service.submit("run", run)
            dispatched = []
            service._dispatch_batch = dispatched.append
            body = service.submit("simulate-program", simulate)
            assert body["status"] == "cached"
            body = service.submit("run", run)
            assert [o["status"] for o in body["outcomes"]] == ["cached"] * 2
            assert body["counts"] == {"cached": 2}
            assert dispatched == []
        finally:
            service.stop()

    def test_hit_body_matches_the_batched_answer(self):
        # the batcher re-checks the memo: a job queued as a miss whose
        # twin was primed meanwhile gets the same body a hit would
        service = _service(engine_jobs=2)
        service.start()
        try:
            request = validate_simulate({"program": "dot", "size": 64})
            service.submit("simulate-program", request)
            memo_answer = service._memo_answer

            def queue_anyway(job):
                memo_answer(job)  # resolves job.runs; drops the answer
                return None

            service._memo_answer = queue_anyway
            from_batcher = service.submit("simulate-program", request)
            service._memo_answer = memo_answer
            assert service.submit("simulate-program", request) == from_batcher
            assert from_batcher["status"] == "cached"
        finally:
            service.stop()

    def test_source_miss_then_hit_counts_once_each(self):
        obs.enable()
        obs.reset()
        service = _service()
        service.start()
        try:
            request = validate_simulate({"source": DOT})
            service.submit("simulate-source", request)
            assert _memo_counts() == {"hits": 0.0, "misses": 1.0}
            service.submit("simulate-source", request)
            assert _memo_counts() == {"hits": 1.0, "misses": 1.0}
        finally:
            service.stop()

    def test_program_miss_then_hit_counts_once_each(self):
        # the engine worker that simulates the miss reports its own
        # private memo's lookup too, so watch the service's lookups
        service = _service(engine_jobs=2)
        service.start()
        counted = []
        lookup = service.runner.memo_lookup

        def recording(run, count=True):
            stats = lookup(run, count=count)
            if count:
                counted.append(stats is not None)
            return stats

        service.runner.memo_lookup = recording
        try:
            request = validate_simulate({"program": "dot", "size": 48})
            first = service.submit("simulate-program", request)
            assert first["status"] == "ok"
            assert counted == [False]
            second = service.submit("simulate-program", request)
            assert second["status"] == "cached"
            assert counted == [False, True]
        finally:
            service.stop()


OPTIMIZE_KERNEL = """
program stencil5
  param N = 64
  real*8 A(N,N), B(N,N), C(N,N)
  do i = 2, N-1
    do j = 2, N-1
      C(j,i) = A(j,i) + B(j,i) + A(j-1,i) + B(j,i-1)
    end do
  end do
end
"""


class TestOptimizeEndpoint:
    def _request(self, **overrides):
        from repro.serve.schemas import validate_optimize

        body = {"source": OPTIMIZE_KERNEL,
                "cache": {"size": "4K", "line": 32},
                "beam": 4, "budget": 12}
        body.update(overrides)
        return validate_optimize(body)

    def test_validation_rejects_bad_knobs(self):
        with pytest.raises(UsageError, match="beam"):
            self._request(beam=0)
        with pytest.raises(UsageError, match="beam"):
            self._request(beam=10_000)
        with pytest.raises(UsageError, match="budget"):
            self._request(budget=10_000)
        with pytest.raises(UsageError, match="objective"):
            self._request(objective="speed")
        with pytest.raises(UsageError, match="unknown field"):
            self._request(bogus=1)

    def test_optimize_error_maps_to_400(self):
        from repro.errors import OptimizeError

        assert http_status_for(OptimizeError("x")) == 400
        body = error_body(OptimizeError("x"))
        assert body["error"]["exit_code"] == 11
        assert body["error"]["http_status"] == 400

    def test_handler_beats_greedy(self):
        from repro.serve import handlers

        response = handlers.handle_optimize(self._request())
        assert response["degraded"] is False
        assert response["improved"] is True
        assert (response["winner"]["conflict_misses"]
                < response["incumbent"]["conflict_misses"])
        assert response["search"]["scored"] >= 1
        assert response["guard"]["status"] == "passed"

    def test_degraded_answer_is_the_incumbent(self):
        from repro.serve import handlers

        response = handlers.handle_optimize(self._request(), degrade=True)
        assert response["degraded"] is True
        assert response["winner_from"] == "incumbent"
        assert response["winner"] == response["incumbent"]
        assert "layout" in response

    def test_service_routes_optimize(self):
        service = _service()
        service.start()
        try:
            response = service.submit("optimize", self._request())
            assert response["program"] == "stencil5"
            assert response["degraded"] is False
        finally:
            service.stop()

    def test_brownout_degrades_optimize(self):
        service = _service(brownout=True)
        service.start()
        try:
            response = service.submit("optimize", self._request())
            assert response["degraded"] is True
            assert response["winner_from"] == "incumbent"
        finally:
            service.stop()
