"""Keep-alive latency of the serving and router HTTP front-ends.

Both tiers answer from one shared handler base that buffers each response
and sends status line, headers and body together.  Sent in two pieces,
the body would wait for the client's delayed ACK of the headers (Nagle's
algorithm), adding ~40 ms to every request on a reused connection.
"""

from __future__ import annotations

import http.client
import json
import statistics
import time
from urllib.parse import urlsplit

#: Sequential requests per connection; the median must stay far below the
#: ~40 ms a delayed-ACK stall costs.
_REQUESTS = 20
_MEDIAN_LIMIT_MS = 10.0


def _keepalive_healthz_ms(url: str) -> list[float]:
    """Latencies of sequential ``GET /healthz`` over one HTTP/1.1 connection."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10.0)
    latencies = []
    try:
        connection.connect()
        sock = connection.sock
        for _ in range(_REQUESTS):
            started = time.perf_counter()
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            payload = json.loads(response.read())
            latencies.append((time.perf_counter() - started) * 1000.0)
            assert response.status == 200
            assert payload["status"] == "ok"
            # The same socket served every request: a real keep-alive run.
            assert connection.sock is sock
    finally:
        connection.close()
    return latencies


def test_serve_keepalive_healthz_median_under_10ms(replica_servers):
    latencies = _keepalive_healthz_ms(replica_servers[0].url)
    assert statistics.median(latencies) < _MEDIAN_LIMIT_MS, latencies


def test_router_keepalive_healthz_median_under_10ms(router_server):
    latencies = _keepalive_healthz_ms(router_server.url)
    assert statistics.median(latencies) < _MEDIAN_LIMIT_MS, latencies
