"""Open-loop HTTP load: a fixed schedule of single-row predict requests.

Requests are due at evenly spaced times (``start + i / rate``), independent
of how fast the server answers, and each latency is measured from the time
the request was due, so a stall also charges the requests queued behind it.
At most ``connections`` requests are in flight, one per sending thread, and
each request opens its own connection as the repository's own client does.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time

#: A request slower than this is abandoned and counted as failed.
REQUEST_TIMEOUT_S = 5.0


class StepResult:
    """What one rate step of the ladder measured."""

    def __init__(self, rate, latencies_s, lags_s, statuses, bodies, rows, elapsed_s=0.0):
        self.rate = rate
        self.elapsed_s = elapsed_s  # first due time to last completion
        self.latencies_s = latencies_s  # None where the request failed
        self.lags_s = lags_s
        self.statuses = statuses
        self.bodies = bodies
        self.rows = rows

    @property
    def sent(self):
        return len(self.statuses)

    @property
    def failed(self):
        return sum(1 for status in self.statuses if status != 200)

    @property
    def succeeded(self):
        return self.sent - self.failed


def percentile(values, q):
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def latency_percentile_ms(step, q):
    """Latency percentile in ms, counting each failed request as infinitely slow."""
    values = [lat if lat is not None else float("inf") for lat in step.latencies_s]
    return percentile(values, q) * 1e3


def backlog_growing(lags_s, tolerance_s):
    """True when requests fell further behind schedule as the step went on.

    Compares the median send lag of the last quarter of the step with that
    of the first quarter; a server that keeps up shows no trend.
    """
    quarter = len(lags_s) // 4
    if quarter == 0:
        return False
    first = statistics.median(lags_s[:quarter])
    last = statistics.median(lags_s[-quarter:])
    return last - first > tolerance_s


def step_passes(step, limit_ms, backlog_tolerance_s):
    return (
        step.failed == 0
        and latency_percentile_ms(step, 99) <= limit_ms
        and not backlog_growing(step.lags_s, backlog_tolerance_s)
    )


def max_passing_rate(steps, limit_ms, backlog_tolerance_s):
    """The highest rate of the ascending ladder's passing prefix (0 if none)."""
    best = 0.0
    for step in sorted(steps, key=lambda s: s.rate):
        if not step_passes(step, limit_ms, backlog_tolerance_s):
            break
        best = step.rate
    return best


def post_rows(host, port, path, rows, timeout=REQUEST_TIMEOUT_S):
    """POST one predict request on a fresh connection; return (status, parsed body)."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps({"rows": rows}).encode("utf-8")
        connection.request("POST", path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = response.read()
        trace_id = response.getheader("X-Repro-Trace-Id")
        if response.status != 200:
            return response.status, None, trace_id
        return 200, json.loads(payload), trace_id
    finally:
        connection.close()


def run_step(host, port, path, rows, rate, connections):
    """Send ``rows`` one per request at ``rate`` requests per second."""
    n = len(rows)
    latencies = [None] * n
    lags = [0.0] * n
    statuses = [0] * n
    bodies = [None] * n
    next_index = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender():
        while True:
            with lock:
                i = next_index[0]
                next_index[0] += 1
            if i >= n:
                return
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            lags[i] = sent - due
            try:
                status, body, trace_id = post_rows(host, port, path, [rows[i]])
            except (OSError, http.client.HTTPException, ValueError):
                status, body, trace_id = -1, None, None
            done = time.perf_counter()
            statuses[i] = status
            if status == 200:
                latencies[i] = done - due
                bodies[i] = (body, trace_id, done - sent)

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return StepResult(rate, latencies, lags, statuses, bodies, rows, elapsed)
