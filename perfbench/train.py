"""The ``train`` workload: default UDT fits, then a drifted ``partial_fit`` stream.

Each fit pass builds default :class:`repro.UDTClassifier` models (Gaussian
pdfs, w=0.1, s=100) on Glass-shaped samples (214 x 9, 6 classes: deep trees)
and an Ionosphere-shaped sample (351 x 32, 2 classes: many attributes), the
stand-ins of the paper's Fig. 6 / Table 2.  Split search does most of the
work here.  The stream leg replays fixed streams of drifted labelled rows
into copies of the Glass models, so featurization and tree routing also run
on the write path.
"""

from __future__ import annotations

import copy
import functools
import subprocess
import sys
import time

import numpy as np

from common import draw, measure, median, peak_rss_mb, population, program_env
from spans import layer_metrics, traced_process

#: (name, rows, attributes, classes, class separation) as in repro.data.uci.
DATASETS = (("Glass", 214, 9, 6, 2.0), ("Ionosphere", 351, 32, 2, 2.5))
#: Independent samples per pass.  Glass trees differ in size from sample to
#: sample, and with them fit and stream times; several samples average that out.
DRAWS = {"Glass": 6, "Ionosphere": 1}
#: The dataset whose models take the drifted partial_fit streams.  The base
#: models are the same for every seed (the seed draws the streams), because
#: their tree sizes set the routing cost and vary a lot between samples.
STREAMED = "Glass"
MODEL_SEED = 0
#: Training samples come from a pool twice their size, so samples of
#: different seeds overlap and build trees of similar size; held-out rows
#: come from a larger pool of the same classes.
POOL_FACTOR = 2
FRESH_ROWS = 4096
#: Streams likewise come from a pool twice their length.
STREAM_POOL_FACTOR = 2
HOLDOUT_ROWS = 200
STREAM_BATCHES = 8
STREAMS_PER_BASE = 2
STREAM_BATCH_ROWS = 32
STREAM_DRIFT = 0.75
#: Held-out accuracy below this means the fit went wrong, not that it got slower.
ACCURACY_FLOOR = {"Glass": 0.8, "Ionosphere": 0.9}
SETUP_REPEATS = 3
FIT_SHARE = 0.6

#: build_stats_ counts reported by the traced run, all exact.
COUNTS = (
    "entropy_evaluations", "lower_bound_evaluations", "end_point_evaluations",
    "intervals_total", "nodes_expanded",
)

PARAMS = {
    "datasets": [list(entry[:4]) + [DRAWS[entry[0]]] for entry in DATASETS],
    "spec": "gaussian(w=0.1, s=100)",
    "streams": f"{STREAMS_PER_BASE} per Glass base model, {STREAM_BATCHES} batches x "
               f"{STREAM_BATCH_ROWS} rows, drift {STREAM_DRIFT}",
}


def _stat(stats, name):
    """A build_stats_ count, wherever the BuildStats layout keeps it."""
    for holder in (stats, getattr(stats, "split_search", None)):
        if holder is not None and hasattr(holder, name):
            return getattr(holder, name)
    return None


def _counts(models):
    """Every model's exact build_stats_ counts."""
    return tuple(
        tuple(_stat(model.build_stats_, name) for name in COUNTS + ("intervals_pruned_by_bound",))
        for model in models
    )


def setup_seconds():
    """Fresh-interpreter ``import repro`` times (the program's set-up here)."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro"], env=program_env(),
                       check=True, capture_output=True)
        times.append(time.perf_counter() - started)
    return times


def make_inputs(seed):
    """The run's inputs: fit samples, stream base training sets and streams.

    Fit samples are ``DRAWS`` independent draws of each dataset stand-in,
    each with training and held-out rows.  Each stream is a list of drifted
    labelled batches drawn from ``seed``, paired with the index of the fixed
    base training set whose model it updates.
    """
    rng = np.random.default_rng(seed)
    base_rng = np.random.default_rng(MODEL_SEED)
    samples, bases, streams = [], [], []
    for name, n_rows, n_attributes, n_classes, separation in DATASETS:
        pool = population(name, n_rows * POOL_FACTOR, n_attributes, n_classes, separation)
        fresh = population(name, FRESH_ROWS, n_attributes, n_classes, separation)
        stream_pool = population(name, STREAM_POOL_FACTOR * STREAM_BATCHES * STREAM_BATCH_ROWS,
                                 n_attributes, n_classes, separation)
        for _ in range(DRAWS[name]):
            X, y = draw(pool, n_rows, rng)
            holdout = draw(fresh, HOLDOUT_ROWS, rng)
            samples.append({"name": name, "train": (X, list(y)), "holdout": holdout})
            if name != STREAMED:
                continue
            base_X, base_y = draw(pool, n_rows, base_rng)
            bases.append((base_X, list(base_y)))
            for _ in range(STREAMS_PER_BASE):
                X, y = draw(stream_pool, STREAM_BATCHES * STREAM_BATCH_ROWS, rng)
                batches = [
                    (X[k * STREAM_BATCH_ROWS:(k + 1) * STREAM_BATCH_ROWS]
                     + STREAM_DRIFT * (k + 1) / STREAM_BATCHES,
                     list(y[k * STREAM_BATCH_ROWS:(k + 1) * STREAM_BATCH_ROWS]))
                    for k in range(STREAM_BATCHES)
                ]
                streams.append((len(bases) - 1, batches))
    return samples, bases, streams


def run(args, result):
    recorder, absent = traced_process() if args.trace else (None, [])
    from repro import UDTClassifier, gaussian

    setup = setup_seconds() if recorder is None else None
    samples, bases, streams = make_inputs(args.seed)
    spec = gaussian(w=0.1, s=100)

    def fit_pass():
        return [UDTClassifier(spec=spec).fit(*sample["train"]) for sample in samples]

    def replay(models):
        for model, (_, batches) in zip(models, streams):
            for X, y in batches:
                model.partial_fit(X, y)
        return models

    def signatures(models):
        return [model.tree_.structure_signature() for model in models]

    # The first pass is the reference: its counts, and its models' accuracy.
    if recorder is not None:
        recorder.enabled = False
    reference = []

    def check_fit(models):
        if not reference:
            reference.extend(models)
            for sample, model in zip(samples, models):
                name = sample["name"]
                accuracy = model.score(*sample["holdout"])
                result.check(accuracy >= ACCURACY_FLOOR[name],
                             f"{name} held-out accuracy {accuracy:.3f} < {ACCURACY_FLOOR[name]}")
        result.check(_counts(models) == _counts(reference),
                     "build_stats_ counts changed between passes")

    base_models = [UDTClassifier(spec=spec).fit(*base) for base in bases]

    def fresh_copies():
        return [copy.deepcopy(base_models[index]) for index, _ in streams]

    stream_signatures = []

    def check_stream(models):
        stream_signatures.append(signatures(models))
        result.check(stream_signatures[-1] == stream_signatures[0],
                     "partial_fit streams built different trees than their first replay")

    fit_s, fit_roots = measure(
        recorder, lambda: fit_pass, args.seconds * FIT_SHARE, check_fit,
    )
    stream_s, stream_roots = measure(
        recorder, lambda: functools.partial(replay, fresh_copies()),
        args.seconds * (1 - FIT_SHARE),
        check_stream,
    )

    stream_rows = len(streams) * STREAM_BATCHES * STREAM_BATCH_ROWS
    if recorder is None:
        result.metric("setup_s", median(setup), "s")
        result.metric("peak_rss_mb", peak_rss_mb(), "MB")
        result.metric("fit_s", fit_s[False], "s")
        result.metric("partial_fit_rows_per_s", stream_rows / stream_s[False], "1/s")
        result.metric("op_ms", fit_s[False] * 1e3, "ms")
        result.metric("rows_per_s", stream_rows / stream_s[False], "1/s")
        return absent
    result.metric("trace.overhead_pct", 100.0 * (fit_s[True] - fit_s[False]) / fit_s[False], "%")
    result.layers(layer_metrics(recorder.spans, fit_roots),
                  layer_metrics(recorder.spans, stream_roots))
    for name in COUNTS:
        values = [_stat(model.build_stats_, name) for model in reference]
        if None not in values:
            result.metric(f"fit.{name}", sum(values), "count")
    pruned = [_stat(model.build_stats_, "intervals_pruned_by_bound") for model in reference]
    tests = [_stat(model.build_stats_, "lower_bound_evaluations") for model in reference]
    if None not in pruned + tests and sum(tests):
        result.metric("fit.bound_prune_ratio", sum(pruned) / sum(tests), "ratio")
    return absent
