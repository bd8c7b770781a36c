"""The ``serve_forest`` workload: single-row predicts to ``repro serve`` over HTTP.

An 8-member :class:`repro.UDTForestClassifier` is saved into a model
directory and served by ``repro serve`` with its default flags.  One load
process sends open-loop traffic (see ``loadgen.py``) up a fixed ladder of
arrival rates; every row is new, so the result cache misses.  Descent and
the forest vote do most of the in-process work per request; HTTP handling,
the coalescer's linger and queueing sit on the blocking path too.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np

import loadgen
from common import ROOT, draw, median, peak_rss_mb, population, program_env, work_dir
from spans import absent_metrics, from_records, layer_metrics, load_seconds

POPULATION = ("ServeForest", 4096, 8, 3, 2.5)
TRAIN_ROWS = 300
N_ESTIMATORS = 8
#: The served model is the same for every seed (the seed draws the traffic):
#: member tree sizes set the descent cost, and they vary a lot between fits.
MODEL_SEED = 0
MODEL = "forest"
#: Arrival rates (requests/s) of the ladder; MID_RATE is where p50/p99 are read.
#: MID_RATE sits far below capacity (about 300/s on an idle 2-core host), so it
#: stays sustainable, and p50 stays a service time, when the host is slower.
RATES = (25, 50, 100, 150, 200, 250, 300)
MID_RATE = 50
#: The latency limit ``serve_max_rps`` is judged by (p99, from scheduled send).
LIMIT_MS = 50.0
BACKLOG_TOLERANCE_MS = 10.0
#: Shares of ``--seconds``: MID_RATE, then the other ladder steps together.
MID_SHARE = 0.5
LADDER_SHARE = 0.35
#: The saturation step: far more arrivals than the server can answer, so both
#: connections stay busy and completions per second measure its capacity.
SATURATION_RATE = 5000
SATURATION_REQUESTS_PER_S = 30
CONNECTIONS = 2
SETUP_REPEATS = 3
ROW_JITTER = 0.05
STARTUP_TIMEOUT_S = 60.0

PARAMS = {
    "members": N_ESTIMATORS, "features": POPULATION[2], "classes": POPULATION[3],
    "train_rows": TRAIN_ROWS, "rates": list(RATES), "mid_rate": MID_RATE,
    "limit_ms_p99": LIMIT_MS, "connections": CONNECTIONS,
}
PREDICT_PATH = f"/v1/models/{MODEL}:predict"
STAGE_LINE = re.compile(
    r'^repro_stage_latency_seconds_(sum|count)\{stage="(\w+)",model="' + MODEL + r'"\} (\S+)$'
)


class Server:
    """One ``repro serve`` child process, optionally under the span launcher."""

    def __init__(self, models_dir, workdir, spans_path=None):
        serve_args = ["serve", "--models", str(models_dir), "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [
                sys.executable, str(Path(__file__).with_name("launch_serve.py")), str(spans_path),
                *serve_args, "--trace-sample-rate", "1.0", "--trace-buffer", "200000",
            ]
        self.log_path = Path(workdir) / f"serve-{id(self)}.log"
        self.started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=program_env(), cwd=ROOT
            )
        self.port = None

    def wait_ready(self, row):
        """Block until the first predict answers 200; return the seconds since spawn."""
        deadline = self.started + STARTUP_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited: {self.log_path.read_text()[-2000:]}")
            if self.port is None:
                match = re.search(r"on http://[^:]+:(\d+)", self.log_path.read_text())
                if match:
                    self.port = int(match.group(1))
            if self.port is not None:
                try:
                    status, _, _ = loadgen.post_rows("127.0.0.1", self.port, PREDICT_PATH, [row])
                    if status == 200:
                        return time.perf_counter() - self.started
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("repro serve did not answer within the start-up timeout")

    def get(self, path, accept="application/json"):
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}", headers={"Accept": accept}
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.read().decode("utf-8")

    def metrics(self):
        """The JSON snapshot and the per-stage (sum, count) of the Prometheus text."""
        snapshot = json.loads(self.get("/metrics"))
        stages = {}
        for line in self.get("/metrics", accept="text/plain").splitlines():
            match = STAGE_LINE.match(line)
            if match:
                kind, stage, value = match.groups()
                stages.setdefault(stage, {})[kind] = float(value)
        snapshot["stages"] = stages
        return snapshot

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def _delta(after, before, *keys):
    for key in keys:
        after, before = after.get(key, {}), before.get(key, {})
    return (after or 0) - (before or 0)


def step_plan(seconds):
    """(rate, request count) of each ladder step, then of the saturation step."""
    other = seconds * LADDER_SHARE / (len(RATES) - 1)
    plan = [(rate, int(rate * (seconds * MID_SHARE if rate == MID_RATE else other)))
            for rate in RATES]
    return plan + [(SATURATION_RATE, int(SATURATION_REQUESTS_PER_S * seconds))]


def run(args, result):
    from repro import UDTForestClassifier, gaussian, load_model

    pool = population(*POPULATION)
    X, y = draw(pool, TRAIN_ROWS, np.random.default_rng(MODEL_SEED))
    rng = np.random.default_rng(args.seed)
    plan = step_plan(args.seconds)
    n_rows = SETUP_REPEATS * 2 + sum(count for _, count in plan)
    picks = rng.integers(0, len(pool[0]), size=n_rows)
    rows = (pool[0][picks] + rng.normal(0.0, ROW_JITTER, size=(n_rows, POPULATION[2]))).tolist()
    warmups, rows = rows[:SETUP_REPEATS * 2], rows[SETUP_REPEATS * 2:]

    servers = []
    with work_dir("serve_forest-") as workdir:
        try:
            models_dir = workdir / "models"
            models_dir.mkdir()
            forest = UDTForestClassifier(
                n_estimators=N_ESTIMATORS, spec=gaussian(w=0.1, s=100), random_state=MODEL_SEED
            ).fit(X, list(y))
            forest.save(models_dir / f"{MODEL}.zip")
            traced = bool(args.trace)
            spans_path = workdir / "spans.json"

            untraced_mid = None
            if traced:
                # Tracing overhead: the mid-rate step against an untraced server.
                server = Server(models_dir, workdir)
                servers.append(server)
                server.wait_ready(warmups[-1])
                mid_rows = rows[:dict(plan)[MID_RATE] // 2]
                untraced_mid = loadgen.run_step("127.0.0.1", server.port, PREDICT_PATH,
                                                mid_rows, MID_RATE, CONNECTIONS)
                server.stop()

            setup = []
            repeats = 1 if traced else SETUP_REPEATS
            for k in range(repeats):
                server = Server(models_dir, workdir, spans_path if traced else None)
                servers.append(server)
                setup.append(server.wait_ready(warmups[k]))
                if k < repeats - 1:
                    server.stop()

            steps, windows, snapshots = _run_ladder(server, plan, rows)
            peak_rss = peak_rss_mb(server.process.pid)
            traces = _trace_durations(server) if traced else {}
            server.stop()
            dumped = json.loads(spans_path.read_text()) if traced else None

            _check_served(result, steps, load_model(models_dir / f"{MODEL}.zip"))
        finally:
            for server in servers:
                server.stop()

    mid = next(step for step in steps if step.rate == MID_RATE)
    print(f"mid-rate {MID_RATE}/s: {mid.succeeded} samples, "
          f"{mid.failed} failed; limit {LIMIT_MS} ms on p99")
    ladder, saturation = steps[:-1], steps[-1]
    max_rps = loadgen.max_passing_rate(ladder, LIMIT_MS, BACKLOG_TOLERANCE_MS / 1e3)
    capacity = saturation.succeeded / saturation.elapsed_s
    if not traced:
        result.metric("setup_s", median(setup), "s")
        result.metric("peak_rss_mb", peak_rss, "MB")
        result.metric("serve_p50_ms", loadgen.latency_percentile_ms(mid, 50), "ms")
        result.metric("serve_p99_ms", loadgen.latency_percentile_ms(mid, 99), "ms")
        result.metric("serve_max_rps", max_rps, "1/s")
        result.metric("op_ms", loadgen.latency_percentile_ms(mid, 50), "ms")
        result.metric("serve_saturated_rps", capacity, "1/s")
        result.metric("rows_per_s", capacity, "1/s")
        return []

    traced_p50 = loadgen.latency_percentile_ms(mid, 50)
    untraced_p50 = loadgen.latency_percentile_ms(untraced_mid, 50)
    result.metric("trace.overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%")
    at = steps.index(mid)
    _engine_metrics(result, snapshots[at:at + 2], snapshots[0], snapshots[-1])
    # Client service time minus the server's own span: HTTP decode/encode,
    # connection set-up and handler dispatch.
    overheads = [
        service_s * 1e3 - traces[trace_id]
        for _, trace_id, service_s in filter(None, mid.bodies) if trace_id in traces
    ]
    if overheads:
        result.metric("serve.http.overhead_ms_p50", loadgen.percentile(overheads, 50), "ms")
    result.metric("loadgen.lag_ms_p99", loadgen.percentile(mid.lags_s, 99) * 1e3, "ms")
    result.metric("loadgen.sent", sum(step.sent for step in steps), "count")
    result.metric("loadgen.failed", sum(step.failed for step in steps), "count")

    spans = from_records(dumped["spans"])
    result.layers(layer_metrics(spans, window=windows[MID_RATE]))
    load_s = load_seconds(spans)
    if load_s is not None:
        result.metric("api.persistence.load_s", load_s)
    return absent_metrics(dumped["missing"])


def _run_ladder(server, plan, rows):
    """Run the ladder (stopping after its first failed step above MID_RATE) and
    the saturation step.

    Returns the steps, each step's time window by rate, and the server's
    metrics before the first step and after each step (a list).
    """
    steps, windows, offset = [], {}, 0
    snapshots = [server.metrics()]
    ladder_failed = False
    for rate, count in plan:
        step_rows, offset = rows[offset:offset + count], offset + count
        if ladder_failed and rate != SATURATION_RATE:
            continue
        started = time.perf_counter()
        step = loadgen.run_step("127.0.0.1", server.port, PREDICT_PATH,
                                step_rows, rate, CONNECTIONS)
        windows[rate] = (started, time.perf_counter())
        snapshots.append(server.metrics())
        steps.append(step)
        passed = loadgen.step_passes(step, LIMIT_MS, BACKLOG_TOLERANCE_MS / 1e3)
        print(f"step {rate:5.0f}/s: sent {step.sent} succeeded {step.succeeded} "
              f"failed {step.failed} p50 {loadgen.latency_percentile_ms(step, 50):.2f} ms "
              f"p99 {loadgen.latency_percentile_ms(step, 99):.2f} ms "
              f"lag p99 {loadgen.percentile(step.lags_s, 99) * 1e3:.2f} ms "
              f"completed {step.succeeded / step.elapsed_s:.1f}/s "
              f"{'pass' if passed else 'FAIL'}")
        ladder_failed = ladder_failed or (rate >= MID_RATE and not passed)
    return steps, windows, snapshots


def _check_served(result, steps, model):
    """Every served row must equal offline ``predict_proba`` bit for bit."""
    answered = [
        (row, body) for step in steps for row, body in zip(step.rows, step.bodies)
        if body is not None
    ]
    offline = model.predict_proba([row for row, _ in answered]) if answered else []
    for (row, (body, _, _)), expected in zip(answered, offline):
        got = np.asarray(body["probabilities"][0])
        result.check(np.array_equal(got, expected),
                     f"served {got.tolist()} != offline {expected.tolist()} for {row}")
    for step in steps:
        result.ops(step.failed, step.failed)


def _engine_metrics(result, mid_snapshots, first, last):
    """serve.engine.* from /metrics: stage means at MID_RATE, rejections overall."""
    before, after = mid_snapshots
    for stage in ("queue_wait", "batch_wait", "inference"):
        count = _delta(after, before, "stages", stage, "count")
        total = _delta(after, before, "stages", stage, "sum")
        if count:
            result.metric(f"serve.engine.{stage}_s", total / count, "s")
    batches = _delta(after, before, "batch_count")
    if batches:
        result.metric("serve.engine.batch_rows_mean", _delta(after, before, "rows_total") / batches,
                      "rows")
    hits = _delta(after, before, "cache", "hits")
    misses = _delta(after, before, "cache", "misses")
    if hits + misses:
        result.metric("serve.engine.cache_hit_ratio", hits / (hits + misses), "ratio")
    result.metric("serve.engine.requests_rejected",
                  _delta(last, first, "requests_rejected"), "count")
    result.metric("serve.engine.requests_abandoned",
                  _delta(last, first, "requests_abandoned"), "count")


def _trace_durations(server):
    """Duration (ms) of each request's ``server.predict`` span, by trace id."""
    payload = json.loads(server.get("/debug/traces?limit=1000000"))
    durations = {}
    for trace in payload.get("traces", []):
        for span in trace.get("spans", []):
            if span.get("name") == "server.predict":
                durations[span.get("trace_id") or trace.get("trace_id")] = span["duration_ms"]
    return durations
