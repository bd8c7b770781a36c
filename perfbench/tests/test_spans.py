"""Self-time arithmetic, attribution and wrapper installation of spans.py."""

import types

import pytest

import spans
from spans import ROOT_SPAN, Recorder, Span, layer_metrics, self_times


def _span(name, start, end, parent=None, **counts):
    return Span(name, start, parent, end, counts)


def test_self_time_subtracts_children_at_every_level():
    root = _span(ROOT_SPAN, 0.0, 10.0)
    child = _span("api.spec", 1.0, 4.0, root)
    grandchild = _span("core.columnar", 2.0, 3.0, child)
    sibling = _span("core.tree", 5.0, 9.0, root)
    own = self_times([root, child, grandchild, sibling])
    assert own[id(root)] == pytest.approx(3.0)
    assert own[id(child)] == pytest.approx(2.0)
    assert own[id(grandchild)] == pytest.approx(1.0)
    assert own[id(sibling)] == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once():
    root = _span(ROOT_SPAN, 0.0, 10.0)
    first = _span("api.spec", 1.0, 5.0, root)
    second = _span("api.spec", 3.0, 7.0, root)
    clipped = _span("api.spec", 9.0, 12.0, root)
    own = self_times([root, first, second, clipped])
    assert own[id(root)] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_self_times_add_up_to_the_root_wall_time():
    root = _span(ROOT_SPAN, 0.0, 10.0)
    tree = _span("core.tree", 1.0, 6.0, root)
    split = _span("split", 2.0, 3.0, tree)
    build = _span("core.builder", 6.5, 9.5, root)
    partition = _span("split", 7.0, 8.0, build)
    metrics = layer_metrics([root, tree, split, build, partition], roots=[root])
    seconds = {name: value for name, value in metrics.items()
               if name.endswith("_s") and name != "trace.wall_s"}
    assert sum(seconds.values()) == pytest.approx(metrics["trace.wall_s"]) == pytest.approx(10.0)
    assert metrics["core.tree.self_s"] == pytest.approx(5.0)
    assert metrics["core.tree.node_splits"] == 1
    assert metrics["fit.partition_s"] == pytest.approx(1.0)
    assert metrics["fit.builder_self_s"] == pytest.approx(2.0)
    assert metrics["trace.unaccounted_s"] == pytest.approx(2.0)


def test_metrics_are_per_root_and_ignore_spans_outside_roots():
    roots = [_span(ROOT_SPAN, 0.0, 2.0), _span(ROOT_SPAN, 3.0, 7.0)]
    inside = [_span("api.spec", 0.5, 1.5, roots[0], cells=8),
              _span("api.spec", 4.0, 5.0, roots[1], cells=8)]
    outside = _span("api.spec", 8.0, 9.0, cells=8)
    metrics = layer_metrics(roots + inside + [outside], roots=roots)
    assert metrics["api.spec.calls"] == 1
    assert metrics["api.spec.cells"] == 8
    assert metrics["api.spec.self_s"] == pytest.approx(1.0)
    assert metrics["trace.wall_s"] == pytest.approx(3.0)


def test_stream_update_time_splits_into_routing_and_resplits():
    root = _span(ROOT_SPAN, 0.0, 10.0)
    update = _span("stream.updates", 1.0, 9.0, root, touched_leaves=3, resplits=1)
    strategy = _span("strategy", 2.0, 3.0, update)
    build = _span("core.builder", 4.0, 8.0, update)
    sweeps = _span("sweeps", 5.0, 6.0, build)
    metrics = layer_metrics([root, update, strategy, build, sweeps], roots=[root])
    assert metrics["stream.updates.route_s"] == pytest.approx(4.0)
    assert metrics["stream.updates.resplit_s"] == pytest.approx(4.0)
    assert metrics["stream.updates.touched_leaves"] == 3
    assert metrics["stream.updates.resplits"] == 1
    assert "fit.sweeps_s" not in metrics


def test_window_keeps_only_spans_inside_it():
    early = _span("core.tree", 0.0, 1.0)
    late = _span("core.tree", 2.0, 4.0)
    metrics = layer_metrics([early, late], window=(1.5, 5.0))
    assert metrics["core.tree.self_s"] == pytest.approx(2.0)


def test_wrapped_calls_nest_and_return_results():
    recorder = Recorder()

    def inner(x):
        return x + 1

    traced_inner = recorder.wrap(inner, "core.columnar", lambda out: {"samples": out})

    def outer(x):
        return traced_inner(x) * 2

    assert recorder.wrap(outer, "api.spec")(1) == 4
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["core.columnar"].parent is by_name["api.spec"]
    assert by_name["core.columnar"].counts == {"samples": 2}
    recorder.enabled = False
    assert recorder.wrap(outer, "api.spec")(1) == 4
    assert len(recorder.spans) == 2


def test_missing_layers_are_reported_absent_not_fatal(monkeypatch):
    module = types.ModuleType("repro_fake_layer")

    class Store:
        @classmethod
        def build(cls, n):
            return n

    module.Store = Store
    module.helper = lambda: 1
    monkeypatch.setitem(__import__("sys").modules, "repro_fake_layer", module)
    recorder = Recorder()
    missing = spans.install(recorder, layers=(
        ("repro_fake_layer", "Store.build", "core.columnar", None),
        ("repro_fake_layer", "helper", "api.spec", None),
        ("repro_fake_layer", "Store.gone", "core.tree", None),
        ("repro_fake_layer", "*.gone", "strategy", None),
        ("repro_no_such_module", "anything", "post_prune", None),
    ))
    assert missing == ["core.tree", "post_prune", "strategy"]
    assert module.Store.build(3) == 3 and module.helper() == 1
    assert sorted(span.name for span in recorder.spans) == ["api.spec", "core.columnar"]
    assert spans.absent_metrics(missing) == [
        "core.tree.self_s", "fit.post_prune_s", "fit.strategy_self_s"]


def test_records_round_trip_keeps_parents():
    root = _span(ROOT_SPAN, 0.0, 2.0)
    child = _span("api.spec", 0.5, 1.0, root, cells=4)
    restored = spans.from_records(spans.to_records([child, root]))
    assert restored[0].parent is restored[1]
    assert restored[0].counts == {"cells": 4}
