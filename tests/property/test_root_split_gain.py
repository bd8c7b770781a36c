"""Property tests for the stream re-split trigger, ``TreeBuilder.root_split_gain``.

The trigger runs on the columnar store, the same routine ``build`` uses for
a root node.  Two invariants:

* **Bit-identity with the per-tuple oracle** — over numerical and
  categorical attributes, fractional tuple weights, truncated pdfs and
  zero-width extents (point masses, constant columns), the columnar gain
  equals the gain the per-tuple reference builder (``tuple_oracle.py``)
  computes, to the last bit, for every strategy and dispersion measure.
* **One flatten per re-split** — the store is memoised on the leaf's local
  dataset, so a triggered re-split's ``build`` reuses the store the trigger
  built: the updater flattens each checked buffer exactly once.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.api import UDTClassifier
from repro.api.spec import gaussian
from repro.core import (
    Attribute,
    CategoricalDistribution,
    SampledPdf,
    UncertainDataset,
    UncertainTuple,
)
from repro.core.builder import TreeBuilder
from repro.core.columnar import ColumnarPdfStore
from repro.core.strategies import STRATEGY_NAMES
from repro.stream import TreeUpdater
from tuple_oracle import TupleTreeBuilder

_MEASURES = ("entropy", "gini", "gain_ratio")
_CATEGORIES = ("red", "green", "blue")


def _numerical_pdf(rng, centre, zero_width):
    """A pdf around ``centre``; zero-width draws are point masses."""
    if zero_width and rng.random() < 0.5:
        return SampledPdf.point(round(centre, 1))
    kind = rng.integers(3)
    if kind == 0:
        return SampledPdf.uniform(centre - 0.5, centre + 0.5, n_samples=int(rng.integers(2, 9)))
    if kind == 1:
        return SampledPdf.gaussian(centre, 0.2 + rng.random(), n_samples=int(rng.integers(3, 12)))
    return SampledPdf.point(centre)


def _random_dataset(seed, n_tuples, n_numerical, n_categorical, n_classes,
                    fractional, zero_width, constant_column):
    rng = np.random.default_rng(seed)
    labels = [f"c{k}" for k in range(n_classes)]
    attributes = [Attribute.numerical(f"x{i}") for i in range(n_numerical)]
    attributes += [
        Attribute.categorical(f"k{i}", _CATEGORIES) for i in range(n_categorical)
    ]
    tuples = []
    for position in range(n_tuples):
        label_index = int(rng.integers(n_classes))
        features = []
        for attribute_index in range(n_numerical):
            if constant_column and attribute_index == 0:
                features.append(SampledPdf.point(1.0))
                continue
            pdf = _numerical_pdf(rng, label_index + rng.normal(0.0, 0.8), zero_width)
            if fractional and pdf.n_samples > 1 and rng.random() < 0.5:
                # A fractional tuple as a split (or a streamed buffer) leaves
                # it: truncated pdf, weight scaled by the branch probability.
                z = float(rng.uniform(pdf.low, pdf.high))
                p_left, left_pdf, right_pdf = pdf.split_at(z)
                if left_pdf is not None and p_left > 0.05:
                    pdf = left_pdf
            features.append(pdf)
        for _ in range(n_categorical):
            if rng.random() < 0.5:
                features.append(CategoricalDistribution.certain(_CATEGORIES[label_index % 3]))
            else:
                probabilities = rng.dirichlet(np.ones(len(_CATEGORIES)))
                features.append(CategoricalDistribution(dict(zip(_CATEGORIES, probabilities))))
        weight = float(rng.uniform(0.05, 1.0)) if fractional and position % 2 else 1.0
        tuples.append(UncertainTuple(features, label=labels[label_index], weight=weight))
    return UncertainDataset(attributes, tuples, class_labels=labels)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    n_tuples=st.integers(min_value=1, max_value=24),
    n_numerical=st.integers(min_value=0, max_value=3),
    n_categorical=st.integers(min_value=0, max_value=2),
    n_classes=st.integers(min_value=2, max_value=3),
    fractional=st.booleans(),
    zero_width=st.booleans(),
    constant_column=st.booleans(),
    strategy=st.sampled_from(STRATEGY_NAMES),
    measure=st.sampled_from(_MEASURES),
    max_depth=st.sampled_from([None, 0, 3]),
    min_split_weight=st.sampled_from([0.5, 2.0]),
)
def test_columnar_gain_equals_oracle_bit_for_bit(
    seed, n_tuples, n_numerical, n_categorical, n_classes, fractional, zero_width,
    constant_column, strategy, measure, max_depth, min_split_weight,
):
    if n_numerical + n_categorical == 0:
        n_numerical = 1
    dataset = _random_dataset(
        seed, n_tuples, n_numerical, n_categorical, n_classes,
        fractional, zero_width, constant_column,
    )
    config = dict(
        strategy=strategy, measure=measure, max_depth=max_depth,
        min_split_weight=min_split_weight,
    )
    columnar = TreeBuilder(**config).root_split_gain(dataset)
    oracle = TupleTreeBuilder(**config).root_split_gain(dataset)
    assert columnar == oracle
    assert np.float64(columnar).tobytes() == np.float64(oracle).tobytes()
    if max_depth == 0:
        assert columnar == 0.0


def test_empty_dataset_has_no_gain():
    dataset = UncertainDataset([Attribute.numerical("x")], [], class_labels=["a", "b"])
    assert TreeBuilder().root_split_gain(dataset) == 0.0


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    gap=st.floats(min_value=1.5, max_value=3.0),
)
def test_triggered_resplit_flattens_the_buffer_once(seed, gap):
    rng = np.random.default_rng(seed)
    X0 = np.vstack([rng.normal(0.0, 1.0, size=(30, 2)), rng.normal(4.0, 1.0, size=(30, 2))])
    y0 = ["a"] * 30 + ["b"] * 30
    model = UDTClassifier(spec=gaussian(w=0.05, s=8), max_depth=4).fit(X0, y0)
    Xs = np.vstack([
        rng.normal(4.0, 0.3, size=(12, 2)), rng.normal(4.0 + gap, 0.3, size=(12, 2))
    ])
    ys = ["a"] * 12 + ["b"] * 12
    builder = model._make_builder()
    updater = TreeUpdater(model.tree_, builder, resplit_gain=0.01, resplit_min_weight=4.0)
    batch = model._prepare_training(model._coerce_update(Xs, ys))

    flattens = []
    gain_checks = []
    real_flatten = ColumnarPdfStore._build_from_dataset.__func__
    real_gain = TreeBuilder.root_split_gain

    def counting_flatten(cls, dataset, *, require_labels):
        flattens.append(id(dataset))
        return real_flatten(cls, dataset, require_labels=require_labels)

    def checked_gain(self, dataset):
        gain = real_gain(self, dataset)
        oracle = TupleTreeBuilder(
            strategy=self.strategy, measure=self.measure, max_depth=self.max_depth,
            min_split_weight=self.min_split_weight,
            min_dispersion_gain=self.min_dispersion_gain,
        ).root_split_gain(dataset)
        assert gain == oracle
        gain_checks.append(id(dataset))
        return gain

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ColumnarPdfStore, "_build_from_dataset", classmethod(counting_flatten))
        patch.setattr(TreeBuilder, "root_split_gain", checked_gain)
        report = updater.update(batch)

    # Every checked buffer was flattened exactly once — by the trigger; the
    # re-split builds that followed reused the memoised store.
    assert flattens == gain_checks
    assume(report.n_resplits > 0)
