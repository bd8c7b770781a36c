"""Rate-ladder selection and percentile arithmetic of loadgen.py."""

import loadgen
from loadgen import StepResult, max_passing_rate

LIMIT_MS = 50.0
TOLERANCE_S = 0.010


def _step(rate, latency_ms=5.0, n=400, lags_s=None, statuses=None):
    latencies = [latency_ms / 1e3] * n
    statuses = statuses or [200] * n
    for i, status in enumerate(statuses):
        if status != 200:
            latencies[i] = None
    return StepResult(rate, latencies, lags_s or [0.0] * n, statuses, [None] * n, [None] * n)


def test_highest_passing_rate_of_the_ladder():
    steps = [_step(50), _step(100), _step(150, latency_ms=20.0), _step(200, latency_ms=80.0)]
    assert max_passing_rate(steps, LIMIT_MS, TOLERANCE_S) == 150


def test_a_growing_backlog_fails_the_step_even_under_the_latency_limit():
    n = 400
    growing = [0.030 * i / n for i in range(n)]  # 30 ms behind schedule by the end
    steps = [_step(50), _step(100), _step(150, latency_ms=20.0, lags_s=growing), _step(200)]
    assert loadgen.backlog_growing(growing, TOLERANCE_S)
    assert max_passing_rate(steps, LIMIT_MS, TOLERANCE_S) == 100


def test_steady_lag_is_not_a_backlog():
    assert not loadgen.backlog_growing([0.004, 0.006] * 200, TOLERANCE_S)


def test_a_failed_request_fails_the_step_and_counts_as_missing_the_limit():
    statuses = [200] * 399 + [429]
    step = _step(150, statuses=statuses)
    assert step.failed == 1 and step.succeeded == 399
    assert loadgen.latency_percentile_ms(step, 100) == float("inf")
    assert max_passing_rate([_step(100), step], LIMIT_MS, TOLERANCE_S) == 100


def test_rates_above_the_first_failure_do_not_count():
    steps = [_step(200), _step(50), _step(100, latency_ms=70.0)]
    assert max_passing_rate(steps, LIMIT_MS, TOLERANCE_S) == 50


def test_no_passing_step_reads_zero():
    assert max_passing_rate([_step(50, latency_ms=60.0)], LIMIT_MS, TOLERANCE_S) == 0


def test_p99_is_nearest_rank():
    values = list(range(1, 1001))
    assert loadgen.percentile(values, 99) == 990
    assert loadgen.percentile(values, 50) == 500
    assert loadgen.percentile([7.0], 99) == 7.0
