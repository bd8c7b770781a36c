"""In-memory span recorder and the wrappers that time repro's layers from outside.

The benchmark never edits the program.  Instead, :func:`install` replaces
the public callables named in :data:`LAYERS` with thin wrappers that open a
span on entry and close it on exit.  Spans stay in memory; the caller turns
them into per-layer metrics when the run ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  :func:`layer_metrics` charges every span's self time
to exactly one ``*_s`` metric, so the self times of one workload add up to
the wall time of its root span (whose own self time is the unaccounted
remainder: benchmark glue plus program code outside every wrapped call).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

ROOT_SPAN = "bench"


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent, end=None, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.counts = counts or {}


class Recorder:
    """Thread-safe span recorder; each thread keeps its own open-span stack."""

    def __init__(self):
        self.spans = []
        self.enabled = True
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def close(self, span, counts=None):
        span.end = time.perf_counter()
        if counts:
            span.counts = counts
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def wrap(self, func, name, count=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            span = self.open(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                self.close(span, count(result) if count is not None and result is not None
                           else None)
        return traced


# -- the layers ----------------------------------------------------------------


def _cells(dataset):
    return {"cells": len(dataset) * dataset.n_attributes}


def _samples(store):
    return {"samples": int(store.n_samples_total)}


def _update_report(report):
    return {"touched_leaves": int(report.touched_leaves), "resplits": int(report.n_resplits)}


#: (module, callable, span name, counter).  ``Class.method`` wraps one
#: method; ``*.method`` wraps the method on every class of the module that
#: defines it itself (each split strategy, each dispersion measure).
LAYERS = (
    ("repro.api.spec", "build_dataset", "api.spec", _cells),
    ("repro.core.columnar", "ColumnarPdfStore.from_dataset", "core.columnar", _samples),
    ("repro.core.tree", "DecisionTree.classify_batch", "core.tree", None),
    ("repro.core.columnar", "ColumnarPdfStore.split_numerical", "split", None),
    ("repro.ensemble.forest", "BaseForestClassifier.predict_proba", "ensemble.forest", None),
    ("repro.core.builder", "TreeBuilder.build", "core.builder", None),
    ("repro.core.strategies", "*.find_best_split", "strategy", None),
    ("repro.core.columnar", "ColumnarPdfStore.build_contexts", "contexts", None),
    ("repro.core.intervals", "build_interval_table", "intervals", None),
    ("repro.core.dispersion", "*.interval_lower_bound_batch", "lower_bounds", None),
    ("repro.core.splits", "prepare_sweep_group", "sweeps", None),
    ("repro.core.splits", "AttributeSplitContext.dispersion_profile", "sweeps", None),
    ("repro.core.postprune", "pessimistic_prune", "post_prune", None),
    ("repro.stream.updates", "TreeUpdater.update", "stream.updates", _update_report),
    ("repro.api.persistence", "load_model", "api.persistence", None),
)

#: The per-layer metrics that cannot be reported when a span is missing.
SPAN_METRICS = {
    "api.spec": ("api.spec.calls", "api.spec.cells", "api.spec.self_s"),
    "core.columnar": ("core.columnar.calls", "core.columnar.samples", "core.columnar.self_s"),
    "core.tree": ("core.tree.self_s",),
    "split": ("core.tree.node_splits", "fit.partition_s"),
    "ensemble.forest": ("ensemble.forest.self_s",),
    "core.builder": ("fit.builder_self_s", "stream.updates.resplit_s"),
    "strategy": ("fit.strategy_self_s",),
    "contexts": ("fit.context_build_s",),
    "intervals": ("fit.interval_tables_s",),
    "lower_bounds": ("fit.lower_bounds_s",),
    "sweeps": ("fit.sweeps_s",),
    "post_prune": ("fit.post_prune_s",),
    "stream.updates": (
        "stream.updates.route_s", "stream.updates.resplit_s",
        "stream.updates.resplits", "stream.updates.touched_leaves",
    ),
    "api.persistence": ("api.persistence.load_s",),
}

#: Where a span's self time goes when no ancestor rule applies.
SELF_METRIC = {
    ROOT_SPAN: "trace.unaccounted_s",
    "api.spec": "api.spec.self_s",
    "core.columnar": "core.columnar.self_s",
    "core.tree": "core.tree.self_s",
    "ensemble.forest": "ensemble.forest.self_s",
    "core.builder": "fit.builder_self_s",
    "strategy": "fit.strategy_self_s",
    "contexts": "fit.context_build_s",
    "intervals": "fit.interval_tables_s",
    "lower_bounds": "fit.lower_bounds_s",
    "sweeps": "fit.sweeps_s",
    "post_prune": "fit.post_prune_s",
}


def _replace_function(module, name, original, replacement):
    """Rebind a module-level function everywhere repro imported it by name."""
    for loaded in list(sys.modules.values()):
        if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, replacement)
    setattr(module, name, replacement)


def _wrap_method(recorder, cls, method, span_name, count):
    raw = cls.__dict__[method]
    if isinstance(raw, classmethod):
        setattr(cls, method, classmethod(recorder.wrap(raw.__func__, span_name, count)))
    elif isinstance(raw, staticmethod):
        setattr(cls, method, staticmethod(recorder.wrap(raw.__func__, span_name, count)))
    else:
        setattr(cls, method, recorder.wrap(raw, span_name, count))


def install(recorder, layers=LAYERS):
    """Wrap every layer callable that exists; return the span names that do not.

    A module, class or function that a later version of the program moved or
    renamed leaves its span absent instead of failing the run.
    """
    for module_name in sorted({entry[0] for entry in layers}):
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass
    found = set()
    for module_name, target, span_name, count in layers:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner_name, _, attr = target.rpartition(".")
        if owner_name == "*":
            classes = [
                cls for _, cls in inspect.getmembers(module, inspect.isclass)
                if cls.__module__ == module_name and attr in cls.__dict__
            ]
            for cls in classes:
                _wrap_method(recorder, cls, attr, span_name, count)
            if classes:
                found.add(span_name)
        elif owner_name:
            cls = getattr(module, owner_name, None)
            if isinstance(cls, type) and attr in cls.__dict__:
                _wrap_method(recorder, cls, attr, span_name, count)
                found.add(span_name)
        else:
            original = getattr(module, attr, None)
            if callable(original):
                _replace_function(module, attr, original, recorder.wrap(original, span_name, count))
                found.add(span_name)
    return sorted({entry[2] for entry in layers} - found)


def traced_process():
    """A recorder wrapped around this process's layers, and the absent metrics."""
    recorder = Recorder()
    return recorder, absent_metrics(install(recorder))


def absent_metrics(missing_spans):
    return sorted({metric for name in missing_spans for metric in SPAN_METRICS.get(name, ())})


# -- turning spans into metrics -----------------------------------------------


def self_times(spans):
    """Map each closed span to its duration minus the union of its children."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(id(span), ()), key=lambda s: s.start):
            low = max(child.start, cursor)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        result[id(span)] = (span.end - span.start) - covered
    return result


def _ancestors(span):
    node = span.parent
    while node is not None:
        yield node
        node = node.parent


def metric_of(span):
    """The ``*_s`` metric a span's self time is charged to."""
    lineage = [span, *_ancestors(span)]
    names = [node.name for node in lineage]
    if "stream.updates" in names:
        below_update = names[: names.index("stream.updates")]
        if "core.builder" in below_update:
            return "stream.updates.resplit_s"
        return "stream.updates.route_s"
    if span.name == "split":
        return "fit.partition_s" if "core.builder" in names else "core.tree.self_s"
    return SELF_METRIC.get(span.name, "trace.unaccounted_s")


def layer_metrics(spans, roots=None, window=None):
    """Per-layer metrics of the spans under ``roots`` or inside ``window``.

    With ``roots`` (the root spans of repeated traced calls) every total is
    divided by the number of roots, so the metrics describe one repeat and
    do not grow with the number of repeats a run fits in.  Returns a dict of
    metric name to value: every self-time metric and the call, work and
    streaming-update counts.
    """
    closed = [span for span in spans if span.end is not None]
    if roots is not None:
        keep = {id(root) for root in roots}
        closed = [
            span for span in closed
            if id(span) in keep or any(id(node) in keep for node in _ancestors(span))
        ]
    if window is not None:
        low, high = window
        closed = [span for span in closed if span.start >= low and span.end <= high]
    own = self_times(closed)
    metrics = {}

    def total(metric, value):
        metrics[metric] = metrics.get(metric, 0) + value

    for span in closed:
        charged = metric_of(span)
        total(charged, own[id(span)])
        if span.name == "api.spec":
            total("api.spec.calls", 1)
            total("api.spec.cells", span.counts.get("cells", 0))
        elif span.name == "core.columnar":
            total("core.columnar.calls", 1)
            total("core.columnar.samples", span.counts.get("samples", 0))
        elif span.name == "split" and charged == "core.tree.self_s":
            total("core.tree.node_splits", 1)
        elif span.name == "stream.updates":
            total("stream.updates.touched_leaves", span.counts.get("touched_leaves", 0))
            total("stream.updates.resplits", span.counts.get("resplits", 0))
    if roots:
        total("trace.wall_s", sum(root.end - root.start for root in roots))
        metrics = {name: value / len(roots) for name, value in metrics.items()}
    return metrics


def load_seconds(spans):
    """Median duration of the ``load_model`` calls among ``spans`` (None if none)."""
    loads = sorted(span.end - span.start for span in spans
                   if span.name == "api.persistence" and span.end is not None)
    return loads[len(loads) // 2] if loads else None


def to_records(spans):
    """Plain tuples for writing spans out of a process (parents by index)."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [
        (span.name, span.start, span.end,
         index.get(id(span.parent)) if span.parent is not None else None, span.counts)
        for span in spans
    ]


def from_records(records):
    spans = [Span(name, start, None, end, counts) for name, start, end, _, counts in records]
    for span, record in zip(spans, records):
        if record[3] is not None:
            span.parent = spans[record[3]]
    return spans
