"""End-to-end HTTP tests for ``repro serve``.

A real :class:`~repro.serve.server.AnalysisServer` on an ephemeral port,
driven with stdlib ``urllib`` — round-trips over the shipped example
kernels, the error surface (malformed JSON, oversized bodies, unknown
routes), the Prometheus scrape, and sustained concurrent load against a
deliberately small admission queue (requests either succeed or get a
clean 429; the server never wedges).
"""

import http.client
import json
import pathlib
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import server as server_mod
from repro.serve.batching import ServeConfig
from repro.serve.server import create_server

KERNELS = sorted(
    pathlib.Path(__file__).resolve().parent.parent.glob(
        "examples/kernels/*.dsl"
    )
)


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(
        port=0, workers=4, queue_depth=16, engine_jobs=1,
        timeout_s=30.0, max_body_bytes=512 * 1024,
    )
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
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=15
    ) as resp:
        return resp.status, resp.read().decode()


def _post(server, path, payload, raw=None):
    host, port = server.address
    data = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def test_healthz(server):
    status, body = _get(server, "/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["queue_depth"] == 16


@pytest.mark.parametrize(
    "path", KERNELS, ids=[path.stem for path in KERNELS]
)
def test_example_kernels_round_trip(server, path):
    source = path.read_text()
    status, padded = _post(server, "/v1/pad", {"source": source})
    assert status == 200, padded
    assert padded["total_bytes"] > 0
    status, linted = _post(server, "/v1/lint", {"source": source})
    assert status == 200, linted
    assert linted["program"] == padded["program"]
    status, simulated = _post(
        server, "/v1/simulate", {"source": source, "heuristic": "pad"}
    )
    assert status == 200, simulated
    assert simulated["original"]["accesses"] > 0
    assert "improvement_pct" in simulated


def test_benchmark_simulate_hits_memo_on_repeat(server):
    body = {"program": "mult", "size": 32}
    status, first = _post(server, "/v1/simulate", body)
    assert status == 200, first
    assert first["status"] in ("ok", "degraded", "cached")
    status, second = _post(server, "/v1/simulate", body)
    assert status == 200
    assert second["status"] == "cached"
    status, text = _get(server, "/metrics")
    assert "repro_runner_memo_hits_total" in text


class _RecordingWriter:
    """A handler's ``wfile`` that remembers every write."""

    def __init__(self, raw, writes):
        self._raw = raw
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


def test_each_response_is_one_write(server, monkeypatch):
    writes = []
    setup = server_mod._Handler.setup

    def recording_setup(handler):
        setup(handler)
        handler.wfile = _RecordingWriter(handler.wfile, writes)

    monkeypatch.setattr(server_mod._Handler, "setup", recording_setup)
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        bodies = []
        for _ in range(2):  # both over the one keep-alive connection
            conn.request(
                "POST", "/v1/simulate",
                body=json.dumps({"program": "dot", "size": 32}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 200
            bodies.append(response.read())
    finally:
        conn.close()
    assert len(writes) == 2
    for write, body in zip(writes, bodies):
        assert write.startswith(b"HTTP/1.1 200 ")
        assert write.endswith(b"\r\n\r\n" + body)


def test_malformed_json_is_400(server):
    status, body = _post(server, "/v1/pad", None, raw=b"{not json")
    assert status == 400
    assert body["error"]["type"] == "UsageError"
    assert "JSON" in body["error"]["message"]


def test_unparsable_kernel_is_422(server):
    status, body = _post(server, "/v1/pad", {"source": "this is not dsl"})
    assert status == 422
    assert body["error"]["http_status"] == 422
    assert body["error"]["exit_code"] == 2


def test_unknown_field_is_400(server):
    status, body = _post(server, "/v1/lint", {"sauce": "x"})
    assert status == 400
    assert "sauce" in body["error"]["message"]

def test_oversized_body_is_413(server):
    blob = b'{"source": "' + b"x" * (512 * 1024) + b'"}'
    status, body = _post(server, "/v1/pad", None, raw=blob)
    assert status == 413
    assert body["error"]["type"] == "PayloadTooLarge"


def test_unknown_route_is_404(server):
    status, body = _post(server, "/v1/nothing", {})
    assert status == 404
    status, _body = _get(server, "/healthz")  # still serving
    assert status == 200


def test_metrics_scrape_has_serve_families(server):
    status, text = _get(server, "/metrics")
    assert status == 200
    assert "repro_serve_requests_total" in text
    assert "repro_serve_request_seconds" in text
    assert "repro_serve_queue_depth" in text


def test_sustained_concurrent_load(server):
    """32+ concurrent pad/lint requests: each gets 200 or a clean 429,
    and the server still answers afterwards (no crash, no deadlock)."""
    source = KERNELS[0].read_text()
    results = []
    lock = threading.Lock()

    def client(index):
        path = "/v1/pad" if index % 2 == 0 else "/v1/lint"
        try:
            status, _body = _post(server, path, {"source": source})
        except Exception as exc:  # transport failure = real bug
            status = f"transport:{exc}"
        with lock:
            results.append(status)

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(40)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert len(results) == 40
    assert all(status in (200, 429) for status in results), results
    assert results.count(200) >= 16  # the queue drained real work
    status, _body = _get(server, "/healthz")
    assert status == 200
