"""Per-tuple reference builder: the oracle for the columnar tree engine.

:class:`TupleTreeBuilder` grows trees the way Section 4 describes them
literally — every node holds a list of fractional
:class:`~repro.core.dataset.UncertainTuple` objects, and a numerical split
truncates each straddling pdf with :meth:`~repro.core.pdf.SampledPdf.split_at`
and scales the tuple weight by the branch probability.  The library builds
on the flat-array :class:`~repro.core.columnar.ColumnarPdfStore` instead;
the equivalence property tests compare the two, so this module is the
independent statement of what the columnar engine must reproduce.

It subclasses :class:`~repro.core.builder.TreeBuilder` only to share the
configuration, the leaf construction and the categorical scoring (which
already works on ``(tuple, weight)`` pairs); split finding and partitioning
are re-implemented here on the object model.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.core.builder import _EPS, BuildResult, TreeBuilder
from repro.core.categorical import CategoricalDistribution
from repro.core.dataset import UncertainDataset, UncertainTuple
from repro.core.postprune import pessimistic_prune
from repro.core.splits import CandidateSplit, build_contexts
from repro.core.stats import BuildStats, SplitSearchStats
from repro.core.tree import DecisionTree, InternalNode, TreeNode
from repro.exceptions import DatasetError

__all__ = ["TupleTreeBuilder"]


class TupleTreeBuilder(TreeBuilder):
    """Tree construction over per-tuple pdf objects (reference only)."""

    def build(self, dataset: UncertainDataset) -> BuildResult:
        if not len(dataset):
            raise DatasetError("cannot build a decision tree from an empty dataset")
        if dataset.n_classes == 0:
            raise DatasetError("the training dataset has no class labels")
        stats = BuildStats()
        root = self._build_node(
            dataset.tuples, dataset, depth=0, used_categorical=frozenset(), stats=stats
        )
        if self.post_prune:
            root, n_collapsed = pessimistic_prune(root, confidence=self.post_prune_confidence)
            stats.record_post_prune(n_collapsed)
        tree = DecisionTree(root, dataset.attributes, dataset.class_labels)
        return BuildResult(tree=tree, stats=stats)

    def root_split_gain(self, dataset: UncertainDataset) -> float:
        tuples = dataset.tuples
        if not tuples:
            return 0.0
        class_weights, best = self._best_split(
            tuples, dataset, depth=0, used_categorical=frozenset(),
            node_stats=SplitSearchStats(),
        )
        if best is None:
            return 0.0
        return max(0.0, float(self.measure.node_dispersion(class_weights) - best.dispersion))

    # -- node construction ---------------------------------------------------

    def _class_weights(
        self, tuples: Sequence[UncertainTuple], dataset: UncertainDataset
    ) -> np.ndarray:
        counts = np.zeros(dataset.n_classes)
        for item in tuples:
            counts[dataset.label_index(item.label)] += item.weight
        return counts

    def _best_split(
        self,
        tuples: Sequence[UncertainTuple],
        dataset: UncertainDataset,
        *,
        depth: int,
        used_categorical: frozenset[int],
        node_stats: SplitSearchStats,
    ) -> tuple[np.ndarray, CandidateSplit | None]:
        class_weights = self._class_weights(tuples, dataset)
        homogeneous = int(np.count_nonzero(class_weights > _EPS)) <= 1
        depth_reached = self.max_depth is not None and depth >= self.max_depth
        too_small = float(class_weights.sum()) < self.min_split_weight
        if homogeneous or depth_reached or too_small:
            return class_weights, None
        best: CandidateSplit | None = None
        for candidate in (
            self._find_numerical_split(tuples, dataset, node_stats),
            self._score_categorical_attributes(
                dataset, used_categorical, node_stats, [(item, item.weight) for item in tuples]
            ),
        ):
            if candidate is None or not candidate.is_valid:
                continue
            if best is None or candidate.dispersion < best.dispersion:
                best = candidate
        return class_weights, best

    def _build_node(
        self,
        tuples: Sequence[UncertainTuple],
        dataset: UncertainDataset,
        *,
        depth: int,
        used_categorical: frozenset[int],
        stats: BuildStats,
    ) -> TreeNode:
        node_stats = SplitSearchStats()
        class_weights, best = self._best_split(
            tuples, dataset, depth=depth, used_categorical=used_categorical,
            node_stats=node_stats,
        )
        node_dispersion = self.measure.node_dispersion(class_weights)
        if best is None or node_dispersion - best.dispersion < self.min_dispersion_gain:
            return self._make_leaf(class_weights, stats)
        stats.record_node(node_stats)
        if best.categorical:
            return self._split_categorical(
                tuples, dataset, best, class_weights,
                depth=depth, used_categorical=used_categorical, stats=stats,
            )
        return self._split_numerical(
            tuples, dataset, best, class_weights,
            depth=depth, used_categorical=used_categorical, stats=stats,
        )

    # -- numerical splits ----------------------------------------------------

    def _find_numerical_split(
        self,
        tuples: Sequence[UncertainTuple],
        dataset: UncertainDataset,
        node_stats: SplitSearchStats,
    ) -> CandidateSplit | None:
        numerical_indices = [
            index for index, attribute in enumerate(dataset.attributes) if attribute.is_numerical
        ]
        if not numerical_indices:
            return None
        contexts = build_contexts(tuples, numerical_indices, dataset.class_labels)
        return self.strategy.find_best_split(contexts, self.measure, node_stats)

    def _split_numerical(
        self,
        tuples: Sequence[UncertainTuple],
        dataset: UncertainDataset,
        split: CandidateSplit,
        class_weights: np.ndarray,
        *,
        depth: int,
        used_categorical: frozenset[int],
        stats: BuildStats,
    ) -> TreeNode:
        assert split.attribute_index is not None and split.split_point is not None
        attribute_index = split.attribute_index
        split_point = split.split_point
        left_tuples: list[UncertainTuple] = []
        right_tuples: list[UncertainTuple] = []
        for item in tuples:
            p_left, left_pdf, right_pdf = item.pdf(attribute_index).split_at(split_point)
            if left_pdf is not None and p_left * item.weight > _EPS:
                left_tuples.append(
                    item.with_feature(attribute_index, left_pdf, item.weight * p_left)
                )
            if right_pdf is not None and (1.0 - p_left) * item.weight > _EPS:
                right_tuples.append(
                    item.with_feature(attribute_index, right_pdf, item.weight * (1.0 - p_left))
                )
        if not left_tuples or not right_tuples:
            return self._make_leaf(class_weights, stats)
        left_child = self._build_node(
            left_tuples, dataset, depth=depth + 1, used_categorical=used_categorical, stats=stats
        )
        right_child = self._build_node(
            right_tuples, dataset, depth=depth + 1, used_categorical=used_categorical, stats=stats
        )
        total = float(class_weights.sum())
        return InternalNode(
            attribute_index,
            split_point=split_point,
            left=left_child,
            right=right_child,
            training_weight=total,
            training_distribution=class_weights / total if total > 0 else None,
        )

    # -- categorical splits --------------------------------------------------

    def _split_categorical(
        self,
        tuples: Sequence[UncertainTuple],
        dataset: UncertainDataset,
        split: CandidateSplit,
        class_weights: np.ndarray,
        *,
        depth: int,
        used_categorical: frozenset[int],
        stats: BuildStats,
    ) -> TreeNode:
        assert split.attribute_index is not None
        attribute_index = split.attribute_index
        partitions: dict[Hashable, list[UncertainTuple]] = {}
        for item in tuples:
            for category, probability in item.categorical(attribute_index).items():
                weight = item.weight * probability
                if weight <= _EPS:
                    continue
                partitions.setdefault(category, []).append(
                    item.with_feature(
                        attribute_index, CategoricalDistribution.certain(category), weight
                    )
                )
        if len(partitions) < 2:
            return self._make_leaf(class_weights, stats)
        new_used = used_categorical | {attribute_index}
        branches = {
            category: self._build_node(
                child_tuples, dataset, depth=depth + 1, used_categorical=new_used, stats=stats
            )
            for category, child_tuples in partitions.items()
        }
        total = float(class_weights.sum())
        fallback = class_weights / total if total > 0 else None
        return InternalNode(
            attribute_index,
            branches=branches,
            fallback=fallback,
            training_weight=total,
            training_distribution=fallback,
        )
