"""``GET /metrics`` content negotiation and the typed client results.

The default (no ``Accept``, or JSON preferred) must keep serving the
legacy JSON snapshot **byte-for-byte**, while ``Accept: text/plain``
switches the same endpoint to Prometheus text exposition.  The typed
client dataclasses must stay drop-in replacements for the plain dicts
the client used to return.
"""

from __future__ import annotations

import json
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.serve import MetricsSnapshot, ModelInfo, ServingClient, create_server
from repro.serve.http import negotiate_metrics_format
from repro.serve.metrics import PROMETHEUS_CONTENT_TYPE

from test_serving_metrics import parse_exposition

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def server(model_dir):
    server = create_server(model_dir, port=0, max_batch=16, max_wait_ms=1.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=5.0)


@pytest.fixture
def client(server):
    return ServingClient(server.url)


def _get(url: str, accept: "str | None" = None):
    headers = {"Accept": accept} if accept is not None else {}
    request = urllib.request.Request(url, headers=headers)
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


class TestNegotiation:
    """The header-parsing rules, independent of any server."""

    @pytest.mark.parametrize("accept", [
        None, "", "application/json", "application/*", "*/*",
        "text/html", "text/plain;q=0.5, application/json",
        "text/plain;q=0.5, application/json;q=0.5",  # tie -> JSON default
    ])
    def test_json_wins(self, accept):
        assert negotiate_metrics_format(accept) == "json"

    @pytest.mark.parametrize("accept", [
        "text/plain", "text/*", "text/plain; version=0.0.4",
        "application/openmetrics-text",
        "text/plain, application/json;q=0.9",
        "application/json;q=0.1, text/plain;q=0.8",
    ])
    def test_prometheus_wins(self, accept):
        assert negotiate_metrics_format(accept) == "prometheus"

    def test_zero_quality_disables_a_type(self):
        assert negotiate_metrics_format("application/json;q=0, text/plain") == "prometheus"

    def test_garbage_header_falls_back_to_json(self):
        assert negotiate_metrics_format(";;;=,,q=x") == "json"


class TestMetricsEndpoint:
    def test_default_json_is_byte_identical_to_snapshot(self, server, client):
        client.predict("demo", [[0.1, 0.2, 0.3]])
        status, content_type, body = _get(f"{server.url}/metrics")
        assert status == 200
        assert content_type == "application/json"
        # The GET above was counted before rendering and no traffic runs
        # after it, so the live snapshot must reproduce the response
        # byte-for-byte (the server serialises with plain json.dumps too,
        # falling back to _jsonable only for numpy values).
        from repro.serve.http import _jsonable

        expected = json.dumps(server.metrics.snapshot(), default=_jsonable).encode()
        assert body == expected

    def test_accept_text_plain_serves_prometheus(self, server, client):
        client.predict("demo", [[0.1, 0.2, 0.3]])
        status, content_type, body = _get(f"{server.url}/metrics", accept="text/plain")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        families = parse_exposition(body.decode("utf-8"))
        rows = families["repro_predict_rows_total"]["samples"]
        assert (("repro_predict_rows_total", {"model": "demo"}, 1.0)) in rows
        assert families["repro_pool_workers"]["type"] == "gauge"

    def test_explicit_json_preference_stays_json(self, server):
        status, content_type, body = _get(
            f"{server.url}/metrics", accept="text/plain;q=0.5, application/json"
        )
        assert status == 200
        assert content_type == "application/json"
        json.loads(body)

    def test_client_metrics_text_helper(self, client):
        text = client.metrics_text()
        assert text.startswith("# HELP ")
        parse_exposition(text)


class TestTypedClientResults:
    def test_predict_result_attribute_and_dict_access(self, client):
        result = client.predict("demo", [[0.1, 0.2, 0.3]])
        assert result.model == "demo"
        assert result.labels == result["labels"]
        assert result.probabilities.shape == (1, 2)
        assert set(result.keys()) >= {"model", "labels", "classes"}
        assert result.to_dict()["model"] == "demo"

    def test_metrics_snapshot_typed_and_dict_access(self, client):
        client.predict("demo", [[0.1, 0.2, 0.3]])
        snap = client.metrics()
        assert isinstance(snap, MetricsSnapshot)
        assert snap.predict_requests == snap["predict_requests"] == 1
        assert snap.latency_ms["count"] == 1
        assert "queue" in snap
        assert len(snap) == len(snap.raw)

    def test_model_info_exposes_format_version(self, client):
        from repro.api import FORMAT_VERSION

        info = client.models()[0]
        assert isinstance(info, ModelInfo)
        assert info.format_version == FORMAT_VERSION
        assert info.model_kind == "tree"
        assert info["format_version"] == FORMAT_VERSION
        assert info.get("missing-key") is None

    def test_model_info_reads_stale_v1_archive_version(self, tmp_path):
        """The golden v1 fixture must surface format_version=1 end to end."""
        import shutil

        golden = FIXTURES / "golden_v1_model.zip"
        shutil.copy(golden, tmp_path / "legacy.zip")
        server = create_server(tmp_path, port=0, max_batch=16, max_wait_ms=1.0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            info = ServingClient(server.url).model("legacy")
            assert info.format_version == 1
            assert info.name == "legacy"
        finally:
            server.close()
            thread.join(timeout=5.0)
