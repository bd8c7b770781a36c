"""Aggregation of load-generator runs into ``BENCH_loadgen.json`` records.

:func:`summarize` reduces one :class:`~repro.loadgen.generator.ShapeRun`
to the numbers the SLO gate and the benchmark archive need: offered vs
achieved rate, latency quantiles over the successful requests, and the
outcome mix (200 / 429 shed / other 4xx / 5xx / transport).
:func:`write_loadgen_report` wraps a list of such records in the same
kind of provenance envelope the other benchmark drivers write
(``repro_version``, ``model_format_version``, platform) so runs from
different builds stay comparable.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

from repro import __version__
from repro.api.persistence import FORMAT_VERSION
from repro.loadgen.generator import ShapeRun

__all__ = ["summarize", "write_loadgen_report"]


def _quantiles_ms(latencies_s: "list[float]") -> dict:
    if not latencies_s:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    values = np.asarray(latencies_s, dtype=float) * 1000.0
    p50, p95, p99 = np.percentile(values, [50.0, 95.0, 99.0])
    return {
        "count": int(values.size),
        "mean": float(values.mean()),
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
    }


def summarize(run: ShapeRun) -> dict:
    """One machine-readable record for one shape's run.

    ``latency_ms`` is computed over the *successful* (200) requests —
    shed and failed requests are accounted separately (``rate_429``,
    ``n_5xx``, ``n_transport``) so a server that 429s everything cannot
    look fast.  ``achieved_rate`` counts successes per second of offered
    window; comparing it with ``offered_rate`` shows how much of the
    schedule the server actually absorbed.
    """
    n_200 = n_429 = n_4xx = n_5xx = n_transport = 0
    ok_latencies: "list[float]" = []
    per_model: "dict[str, int]" = {name: 0 for name in run.models}
    for record in run.records:
        per_model[record.model] = per_model.get(record.model, 0) + 1
        if record.status == 200:
            n_200 += 1
            ok_latencies.append(record.latency_s)
        elif record.status == 429:
            n_429 += 1
        elif 400 <= record.status < 500:
            n_4xx += 1
        elif record.status >= 500:
            n_5xx += 1
        else:
            n_transport += 1
    n_total = len(run.records)
    return {
        "shape": run.shape,
        "params": dict(run.params),
        "offered": run.offered,
        "completed": n_total,
        "offered_rate": run.offered / run.duration_s if run.duration_s else 0.0,
        "achieved_rate": n_200 / run.duration_s if run.duration_s else 0.0,
        "duration_s": run.duration_s,
        "elapsed_s": run.elapsed_s,
        "n_200": n_200,
        "n_429": n_429,
        "n_4xx": n_4xx,
        "n_5xx": n_5xx,
        "n_transport": n_transport,
        "rate_429": n_429 / n_total if n_total else 0.0,
        "error_rate": (n_5xx + n_transport) / n_total if n_total else 0.0,
        "latency_ms": _quantiles_ms(ok_latencies),
        "per_model": per_model,
        "models": list(run.models),
        "traces": _trace_samples(run),
    }


def _trace_samples(run: ShapeRun, cap: int = 10) -> dict:
    """Sampled trace ids worth chasing: every error first, then the slowest.

    The ids join the run against the servers' ``/debug/traces`` buffers
    (``repro trace <id> <targets...>``), so a bad percentile in the report
    leads straight to the span tree that explains it.
    """
    traced = [record for record in run.records if record.trace_id]
    errors = [record for record in traced if record.status != 200]
    slowest = sorted(traced, key=lambda record: record.latency_s, reverse=True)
    samples = []
    seen: set = set()
    for record in [*errors, *slowest]:
        if record.trace_id in seen:
            continue
        if len(samples) >= cap:
            break
        seen.add(record.trace_id)
        samples.append(
            {
                "trace_id": record.trace_id,
                "model": record.model,
                "status": record.status,
                "latency_ms": record.latency_s * 1000.0,
            }
        )
    return {"n_sampled": len(traced), "samples": samples}


def write_loadgen_report(
    records: "list[dict]", path, params: "dict | None" = None
) -> Path:
    """Write the ``BENCH_loadgen.json`` artifact: records + provenance.

    ``records`` are :func:`summarize` outputs, one per shape; ``params``
    captures the generator configuration (rate, users, seed, ...).
    Returns the path written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    envelope = {
        "benchmark": "loadgen",
        "repro_version": __version__,
        "model_format_version": FORMAT_VERSION,
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "params": dict(params or {}),
        "shapes": list(records),
    }
    path.write_text(json.dumps(envelope, indent=2, sort_keys=False) + "\n")
    return path
