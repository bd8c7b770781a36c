"""Property: save → load yields an identical tree and bit-identical predictions.

The satellite acceptance test for model persistence: for every fixture
dataset (numerical, uniform-pdf, Iris-shaped, mixed categorical, and the
handcrafted Table 1 example), a fitted classifier survives the
``model.json`` + array-block archive round trip with

* an identical tree (``structure_signature`` equality covers topology,
  split points and leaf distributions), and
* bit-identical ``predict_proba`` output (``np.array_equal``, not
  ``allclose``) on the training set itself.

Backward compatibility is pinned by a golden fixture: a format-version-1
archive committed under ``tests/fixtures/`` (written by the 1.3.x line,
before forests existed) must keep loading and predicting bit-identically
under the current code.  Forest archives (``kind: "forest"``) round-trip
under the same exactness bar.

Format version 3 replaces the compressed ``arrays.npz`` member with a raw,
page-aligned ``arrays.bin`` block that ``load_model`` memory-maps.
:class:`TestSharedMatrixViews` pins the zero-copy contract on *every*
format version (leaf distributions are views into one shared matrix, never
``tolist()`` round-trip copies), and :class:`TestCrossVersion` pins v2↔v3
bit-identity plus the v3 on-disk layout (stored, page-aligned, described
by the ``arrays`` header in ``model.json``).
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.api import FORMAT_VERSION, load_model, read_model_metadata
from repro.core import AveragingClassifier, DecisionTree, UDTClassifier
from repro.ensemble import AveragingForestClassifier, UDTForestClassifier

#: Directory of committed golden archives.
_FIXTURES = Path(__file__).parent.parent / "fixtures"

#: Names of conftest dataset fixtures the round trip must hold on.
_DATASET_FIXTURES = (
    "table1",
    "small_uncertain",
    "uniform_uncertain",
    "iris_like",
    "mixed_dataset",
)


@pytest.fixture(params=_DATASET_FIXTURES)
def dataset(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("estimator_class", [UDTClassifier, AveragingClassifier])
def test_model_round_trip_is_exact(dataset, estimator_class, tmp_path):
    model = estimator_class().fit(dataset)
    path = tmp_path / "model.udt"
    model.save(path)
    loaded = load_model(path)

    assert type(loaded) is estimator_class
    assert loaded.tree_.structure_signature() == model.tree_.structure_signature()
    assert loaded.tree_.n_nodes == model.tree_.n_nodes
    assert np.array_equal(loaded.predict_proba(dataset), model.predict_proba(dataset))
    assert np.array_equal(loaded.predict(dataset), model.predict(dataset))


def test_tree_round_trip_is_exact(dataset, tmp_path):
    tree = UDTClassifier(strategy="UDT", post_prune=False).fit(dataset).tree_
    path = tmp_path / "tree.udt"
    tree.save(path)
    restored = DecisionTree.load(path)
    assert restored.structure_signature() == tree.structure_signature()
    assert np.array_equal(restored.classify_dataset(dataset), tree.classify_dataset(dataset))


@pytest.mark.parametrize(
    "forest_class", [UDTForestClassifier, AveragingForestClassifier]
)
def test_forest_round_trip_is_exact(dataset, forest_class, tmp_path):
    """``kind: "forest"`` archives reload with identical members and bits."""
    model = forest_class(
        n_estimators=4, random_state=5, feature_subsample="sqrt"
    ).fit(dataset)
    path = tmp_path / "forest.zip"
    model.save(path)
    loaded = load_model(path)

    assert type(loaded) is forest_class
    assert len(loaded.trees_) == len(model.trees_)
    assert [t.structure_signature() for t in loaded.trees_] == [
        t.structure_signature() for t in model.trees_
    ]
    assert loaded.tree_feature_indices_ == model.tree_feature_indices_
    assert np.array_equal(loaded.predict_proba(dataset), model.predict_proba(dataset))
    assert np.array_equal(loaded.predict(dataset), model.predict(dataset))

    metadata = read_model_metadata(path)
    assert metadata["kind"] == "forest"
    assert metadata["model_kind"] == "forest"
    assert metadata["n_trees"] == 4
    assert metadata["format_version"] == FORMAT_VERSION


class TestGoldenV1Archive:
    """A committed format-v1 archive must survive the v2 code unchanged."""

    def _expected(self) -> dict:
        return json.loads((_FIXTURES / "golden_v1_expected.json").read_text())

    def test_fixture_is_really_version_1(self):
        metadata = read_model_metadata(_FIXTURES / "golden_v1_model.zip")
        assert metadata["format_version"] == 1
        assert metadata["kind"] == "estimator"
        # v1 archives are single trees; the derived kind axis says so.
        assert metadata["model_kind"] == "tree"
        assert metadata["n_trees"] == 1

    def test_v1_archive_loads_and_predicts_bit_identically(self):
        expected = self._expected()
        model = load_model(_FIXTURES / "golden_v1_model.zip")
        rows = np.array(
            [[float(cell) for cell in row] for row in expected["rows"]], dtype=float
        )
        probabilities = model.predict_proba(rows)
        golden = np.array(
            [[float(cell) for cell in row] for row in expected["probabilities"]],
            dtype=float,
        )
        # repr-serialised doubles reload to the exact same bits, so this is
        # a bit-for-bit comparison against the probabilities recorded when
        # the archive was written under format version 1.
        assert np.array_equal(probabilities, golden)
        assert [str(label) for label in model.predict(rows)] == expected["labels"]
        assert [str(label) for label in model.classes_] == expected["classes"]

    def test_v1_archive_resaves_as_v2_with_same_bits(self, tmp_path):
        """Upgrading an archive (load + save) never changes predictions."""
        expected = self._expected()
        model = load_model(_FIXTURES / "golden_v1_model.zip")
        upgraded_path = tmp_path / "upgraded.zip"
        model.save(upgraded_path)
        assert read_model_metadata(upgraded_path)["format_version"] == FORMAT_VERSION
        upgraded = load_model(upgraded_path)
        rows = np.array(
            [[float(cell) for cell in row] for row in expected["rows"]], dtype=float
        )
        assert np.array_equal(
            upgraded.predict_proba(rows), model.predict_proba(rows)
        )


def _with_engine_param(source: Path, target: Path, engine: str) -> None:
    """Copy an archive, storing ``engine`` among its constructor params."""
    with zipfile.ZipFile(source) as archive, zipfile.ZipFile(target, "w") as out:
        for info in archive.infolist():
            data = archive.read(info.filename)
            if info.filename == "model.json":
                payload = json.loads(data)
                payload["params"]["engine"] = engine
                data = json.dumps(payload).encode("utf-8")
            out.writestr(info, data)


class TestRetiredEngineParam:
    """Archives that store the retired ``engine`` selector keep loading.

    Older writers stored ``"engine": "columnar"`` or ``"tuples"`` among the
    constructor params; both built the same tree, so the loader drops the
    key for every format version and the archive predicts bit-identically
    to its twin.
    """

    def test_golden_v1_archive_with_tuples_engine(self, tmp_path):
        golden = _FIXTURES / "golden_v1_model.zip"
        tuples_path = tmp_path / "tuples.zip"
        _with_engine_param(golden, tuples_path, "tuples")
        rows = np.array(
            [[float(cell) for cell in row]
             for row in json.loads((_FIXTURES / "golden_v1_expected.json").read_text())["rows"]]
        )
        columnar_model = load_model(golden)
        tuples_model = load_model(tuples_path)
        assert np.array_equal(tuples_model.predict_proba(rows), columnar_model.predict_proba(rows))
        assert "engine" not in tuples_model.get_params()
        for path in (golden, tuples_path):
            assert "engine" not in read_model_metadata(path)

    @pytest.mark.parametrize("format_version", [2, 3])
    @pytest.mark.parametrize("forest", [False, True], ids=["tree", "forest"])
    def test_tuples_archive_predicts_like_its_columnar_twin(
        self, small_uncertain, tmp_path, format_version, forest
    ):
        from repro.api import persistence

        model = (
            UDTForestClassifier(n_estimators=3, random_state=2) if forest else UDTClassifier()
        ).fit(small_uncertain)
        real_payload = persistence._estimator_payload
        loaded = {}
        for engine in ("columnar", "tuples"):
            path = tmp_path / f"{engine}.zip"

            def payload_with_engine(model, kind, engine=engine):
                payload = real_payload(model, kind)
                payload["params"]["engine"] = engine
                return payload

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(persistence, "_estimator_payload", payload_with_engine)
                model.save(path, format_version=format_version)
            with zipfile.ZipFile(path) as archive:
                stored = json.loads(archive.read("model.json"))
            assert stored["params"]["engine"] == engine
            assert stored["format_version"] == format_version
            assert "engine" not in read_model_metadata(path)
            loaded[engine] = load_model(path)
        expected = model.predict_proba(small_uncertain)
        for restored in loaded.values():
            assert np.array_equal(restored.predict_proba(small_uncertain), expected)


def _leaves(tree):
    return [node for node in tree.iter_nodes() if node.is_leaf]


class TestSharedMatrixViews:
    """Loaded nodes view one shared matrix — no ``tolist()`` copies.

    ``load_model`` attaches the stacked distribution matrix to the model as
    ``_shared_arrays``; every leaf's ``distribution`` (and every internal
    node's fallback/training arrays) must be a row view into it on the v3
    mmap path *and* on the legacy v1/v2 npz path.
    """

    def _assert_views(self, model, matrix):
        assert matrix is not None and matrix.ndim == 2
        assert not matrix.flags.writeable
        trees = getattr(model, "trees_", None) or [model.tree_]
        leaves = [leaf for tree in trees for leaf in _leaves(tree)]
        assert leaves
        for leaf in leaves:
            assert np.shares_memory(leaf.distribution, matrix)
            assert not leaf.distribution.flags.writeable

    @pytest.mark.parametrize("format_version", [2, 3])
    def test_tree_model_leaves_view_the_shared_matrix(
        self, small_uncertain, tmp_path, format_version
    ):
        model = UDTClassifier().fit(small_uncertain)
        path = tmp_path / "model.zip"
        model.save(path, format_version=format_version)
        assert read_model_metadata(path)["format_version"] == format_version
        loaded = load_model(path)
        self._assert_views(loaded, loaded._shared_arrays)
        assert np.array_equal(
            loaded.predict_proba(small_uncertain), model.predict_proba(small_uncertain)
        )

    @pytest.mark.parametrize("format_version", [2, 3])
    def test_forest_members_share_one_matrix(
        self, small_uncertain, tmp_path, format_version
    ):
        model = UDTForestClassifier(n_estimators=3, random_state=1).fit(small_uncertain)
        path = tmp_path / "forest.zip"
        model.save(path, format_version=format_version)
        loaded = load_model(path)
        self._assert_views(loaded, loaded._shared_arrays)

    def test_v3_matrix_is_memory_mapped(self, small_uncertain, tmp_path):
        model = UDTClassifier().fit(small_uncertain)
        path = tmp_path / "model.zip"
        model.save(path)
        loaded = load_model(path)
        assert isinstance(loaded._shared_arrays, np.memmap)
        # Opting out of the mmap still reloads the same bits.
        in_memory = load_model(path, mmap_arrays=False)
        assert not isinstance(in_memory._shared_arrays, np.memmap)
        assert np.array_equal(in_memory._shared_arrays, loaded._shared_arrays)

    def test_golden_v1_archive_also_restores_views(self):
        loaded = load_model(_FIXTURES / "golden_v1_model.zip")
        self._assert_views(loaded, loaded._shared_arrays)


class TestCrossVersion:
    """v2 and v3 archives of one model are interchangeable bit-for-bit."""

    def test_v2_and_v3_round_trips_are_bit_identical(self, dataset, tmp_path):
        model = UDTClassifier().fit(dataset)
        v2_path, v3_path = tmp_path / "v2.zip", tmp_path / "v3.zip"
        model.save(v2_path, format_version=2)
        model.save(v3_path, format_version=3)
        v2, v3 = load_model(v2_path), load_model(v3_path)
        assert v2.tree_.structure_signature() == v3.tree_.structure_signature()
        assert np.array_equal(v2.predict_proba(dataset), v3.predict_proba(dataset))
        assert np.array_equal(model.predict_proba(dataset), v3.predict_proba(dataset))

    def test_v2_to_v3_migration_and_back(self, small_uncertain, tmp_path):
        """load(v2) → save(v3) → load → save(v2) never moves a bit."""
        model = UDTForestClassifier(n_estimators=3, random_state=2).fit(small_uncertain)
        expected = model.predict_proba(small_uncertain)
        a, b, c = (tmp_path / name for name in ("a.zip", "b.zip", "c.zip"))
        model.save(a, format_version=2)
        load_model(a).save(b, format_version=3)
        load_model(b).save(c, format_version=2)
        for path, version in ((a, 2), (b, 3), (c, 2)):
            assert read_model_metadata(path)["format_version"] == version
            assert np.array_equal(load_model(path).predict_proba(small_uncertain), expected)

    def test_v3_array_block_is_stored_and_page_aligned(self, small_uncertain, tmp_path):
        import zipfile

        from repro.api.persistence import _member_data_offset

        model = UDTClassifier().fit(small_uncertain)
        path = tmp_path / "model.zip"
        model.save(path)
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("arrays.bin")
            assert info.compress_type == zipfile.ZIP_STORED
            offset = _member_data_offset(path, info)
        assert offset % 4096 == 0
        matrix = load_model(path)._shared_arrays
        raw = np.fromfile(path, dtype="<f8", count=matrix.size, offset=offset)
        assert np.array_equal(raw.reshape(matrix.shape), matrix)

    def test_v3_metadata_exposes_the_arrays_header(self, small_uncertain, tmp_path):
        model = UDTClassifier().fit(small_uncertain)
        v3_path, v2_path = tmp_path / "v3.zip", tmp_path / "v2.zip"
        model.save(v3_path)
        model.save(v2_path, format_version=2)
        header = read_model_metadata(v3_path)["arrays"]
        assert header["member"] == "arrays.bin"
        assert header["dtype"] == "<f8"
        assert header["shape"] == list(load_model(v3_path)._shared_arrays.shape)
        assert read_model_metadata(v2_path)["arrays"] is None

    def test_save_rejects_unknown_format_versions(self, small_uncertain, tmp_path):
        from repro.exceptions import PersistenceError

        model = UDTClassifier().fit(small_uncertain)
        with pytest.raises(PersistenceError):
            model.save(tmp_path / "bad.zip", format_version=4)
        with pytest.raises(PersistenceError):
            model.save(tmp_path / "bad.zip", format_version=0)


def test_leaf_distributions_reload_verbatim(tmp_path):
    """Restoring a leaf must not re-run the constructor's normalisation.

    A normalised distribution can sum to 0.999... instead of exactly 1.0;
    dividing by that sum again shifts the last bit, which once made a
    reloaded forest's predict_proba differ from the saved model by 1 ulp.
    """
    from repro.core.dataset import Attribute
    from repro.core.tree import InternalNode, LeafNode

    # These two doubles sum to 0.9999999999999999, the non-idempotent case.
    values = np.array([0.9572544260768425, 0.04274557392315737])
    assert values.sum() != 1.0
    tree = DecisionTree(
        root=InternalNode(
            0,
            split_point=0.5,
            left=LeafNode(np.array([1.0, 0.0]), training_weight=1.0),
            right=LeafNode(values, training_weight=1.0),
        ),
        attributes=[Attribute.numerical("A1")],
        class_labels=("a", "b"),
    )
    # The constructor itself renormalises, so pin the exact bits the way a
    # finished build holds them before comparing the round trip.
    tree.root.right.distribution = values
    path = tmp_path / "tree.zip"
    tree.save(path)
    restored = DecisionTree.load(path)
    assert np.array_equal(restored.root.right.distribution, values)
    assert restored.structure_signature() == tree.structure_signature()


def test_unnormalised_payloads_still_normalise_on_load():
    """The verbatim restore only applies to already-normalised archives.

    ``tree_from_dict`` is public: a hand-built payload carrying raw counts
    must still come back normalised, and an all-zero vector must still get
    the constructor's uniform fallback.
    """
    from repro.api import tree_from_dict

    def payload(distribution):
        return {
            "format_version": 1,
            "attributes": [{"name": "A1", "kind": "numerical", "domain": []}],
            "class_labels": ["a", "b"],
            "root": {"type": "leaf", "distribution": distribution,
                     "training_weight": 1.0},
        }

    counts = tree_from_dict(payload([3.0, 1.0]))
    assert np.array_equal(counts.root.distribution, [0.75, 0.25])
    zeros = tree_from_dict(payload([0.0, 0.0]))
    assert np.array_equal(zeros.root.distribution, [0.5, 0.5])


def test_double_round_trip_is_stable(small_uncertain, tmp_path):
    """Serialising a loaded model again produces an equivalent model."""
    model = UDTClassifier().fit(small_uncertain)
    first = tmp_path / "first.udt"
    second = tmp_path / "second.udt"
    model.save(first)
    loaded = load_model(first)
    loaded.save(second)
    again = load_model(second)
    assert again.tree_.structure_signature() == model.tree_.structure_signature()
    assert np.array_equal(
        again.predict_proba(small_uncertain), model.predict_proba(small_uncertain)
    )
