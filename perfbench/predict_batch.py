"""The ``predict_batch`` workload: batch ``predict_proba`` against a loaded tree.

A default :class:`repro.UDTClassifier` (Gaussian pdfs, w=0.1, s=100, 8
features) is fitted once, saved, and loaded back with ``load_model``, as a
scoring job would.  Each call scores a large batch of fresh rows.  Turning
the rows into pdfs (featurization) does most of the work here; tree descent
is a small share.
"""

from __future__ import annotations

import time

import numpy as np

from common import draw, measure, median, peak_rss_mb, population, work_dir
from spans import layer_metrics, load_seconds, traced_process

#: (name, pool rows, attributes, classes, class separation).  The model is
#: trained on a smaller pool of the same classes, so scored rows are fresh.
POPULATION = ("PredictBatch", 16384, 8, 3, 2.5)
TRAIN_POOL_ROWS = 4096
TRAIN_ROWS = 400
#: The scored model is the same for every seed; the seed draws the batches.
MODEL_SEED = 0
BATCH_ROWS = 2048
N_BATCHES = 6
WARMUP_ROWS = 16
CHECK_ROWS = 16
SETUP_REPEATS = 15

PARAMS = {
    "features": POPULATION[2], "classes": POPULATION[3], "train_rows": TRAIN_ROWS,
    "batch_rows": BATCH_ROWS, "batches": N_BATCHES, "spec": "gaussian(w=0.1, s=100)",
}


def run(args, result):
    recorder, absent = traced_process() if args.trace else (None, [])
    from repro import UDTClassifier, build_dataset, gaussian, load_model

    name, _, n_attributes, n_classes, separation = POPULATION
    X, y = draw(population(name, TRAIN_POOL_ROWS, n_attributes, n_classes, separation),
                TRAIN_ROWS, np.random.default_rng(MODEL_SEED))
    rng = np.random.default_rng(args.seed)
    fresh, _ = draw(population(*POPULATION), N_BATCHES * BATCH_ROWS, rng)
    batches = [fresh[k * BATCH_ROWS:(k + 1) * BATCH_ROWS] for k in range(N_BATCHES)]
    with work_dir("predict_batch-") as workdir:
        path = workdir / "model.zip"
        UDTClassifier(spec=gaussian(w=0.1, s=100)).fit(X, list(y)).save(path)

        # Set-up: load the archive and answer a first small request.
        setup = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            model = load_model(path)
            model.predict_proba(batches[0][:WARMUP_ROWS])
            setup.append(time.perf_counter() - started)
        if recorder is not None:
            recorder.enabled = False

        # Reference: every batch once, plus a per-row classify of a sample.
        expected = [model.predict_proba(batch) for batch in batches]
        for batch, proba in zip(batches, expected):
            sample = rng.choice(BATCH_ROWS, size=CHECK_ROWS, replace=False)
            dataset = build_dataset(
                batch[sample], None, spec=model.spec, extents=model.feature_extents_,
                attribute_names=model.feature_names_in_,
            )
            for row, item in zip(sample, dataset.tuples):
                reference = model.tree_.classify(item)
                result.check(
                    np.allclose(proba[row], reference, rtol=1e-9, atol=1e-12),
                    f"row {row}: batch {proba[row].tolist()} != per-row {reference.tolist()}",
                )

        calls = [0]

        def prepare():
            k = calls[0] % N_BATCHES
            calls[0] += 1
            return lambda: (k, model.predict_proba(batches[k]))

        def check(output):
            k, proba = output
            result.check(np.array_equal(proba, expected[k]),
                         f"batch {k}: repeated predict_proba gave different probabilities")

        seconds, roots = measure(recorder, prepare, args.seconds, check, min_repeats=3)
    if recorder is None:
        result.metric("setup_s", median(setup), "s")
        result.metric("peak_rss_mb", peak_rss_mb(), "MB")
        result.metric("predict_rows_per_s", BATCH_ROWS / seconds[False], "1/s")
        result.metric("op_ms", seconds[False] * 1e3, "ms")
        result.metric("rows_per_s", BATCH_ROWS / seconds[False], "1/s")
    else:
        result.metric("trace.overhead_pct",
                      100.0 * (seconds[True] - seconds[False]) / seconds[False], "%")
        result.layers(layer_metrics(recorder.spans, roots))
        load_s = load_seconds(recorder.spans)
        if load_s is not None:
            result.metric("api.persistence.load_s", load_s)
    return absent
