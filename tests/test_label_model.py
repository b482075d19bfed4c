import numpy as np
import pytest

from klvq import (
    KnnConfig,
    LabeledDataset,
    ParameterError,
    estimate_all,
    knn_indices,
    label_distributions,
)

from oracles import oracle_knn


@pytest.fixture
def two_pair_dataset():
    return LabeledDataset(
        features=np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]]),
        labels=np.array([0, 0, 1, 1]),
        class_names=("A", "B"),
    )


def random_dataset(rng, n=None, dim=None, num_classes=None, duplicates=False):
    n = n or int(rng.integers(2, 200))
    dim = dim or int(rng.integers(1, 8))
    num_classes = num_classes or int(rng.integers(1, 5))
    features = rng.normal(size=(n, dim))
    if duplicates and n >= 4:
        # Copy some rows verbatim so exact distance ties occur.
        source = rng.integers(0, n, size=n // 4)
        target = rng.integers(0, n, size=n // 4)
        features[target] = features[source]
    labels = rng.integers(0, num_classes, size=n)
    return LabeledDataset(features, labels, tuple(f"c{i}" for i in range(num_classes)))


class TestDatasetValidation:
    def test_rejects_non_finite_features(self):
        with pytest.raises(ParameterError):
            LabeledDataset(np.array([[np.nan]]), np.array([0]), ("a",))

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ParameterError):
            LabeledDataset(np.ones((2, 1)), np.array([0, 2]), ("a", "b"))

    def test_rejects_duplicate_class_names(self):
        with pytest.raises(ParameterError):
            LabeledDataset(np.ones((1, 1)), np.array([0]), ("a", "a"))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ParameterError):
            LabeledDataset(np.ones((2, 1)), np.array([0]), ("a",))


class TestKnnConfig:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ParameterError):
            KnnConfig(k=0)

    def test_clipped_respects_self_inclusion(self):
        assert KnnConfig(k=10, include_self=True).clipped(4).k == 4
        assert KnnConfig(k=10, include_self=False).clipped(4).k == 3
        assert KnnConfig(k=2).clipped(100).k == 2


class TestKnnIndices:
    def test_two_nearest_of_a_tight_pair(self, two_pair_dataset):
        got = knn_indices(two_pair_dataset, [0.0, 0.0], KnnConfig(k=2))
        assert got.tolist() == [0, 1]

    def test_k_equal_n_returns_every_row(self, two_pair_dataset):
        got = knn_indices(two_pair_dataset, [0.0, 0.0], KnnConfig(k=4))
        assert got.tolist() == [0, 1, 2, 3]

    def test_equal_distances_break_to_lower_index(self):
        dataset = LabeledDataset(np.array([[1.0], [-1.0]]), np.array([0, 1]), ("a", "b"))
        got = knn_indices(dataset, [0.0], KnnConfig(k=1))
        assert got.tolist() == [0]

    def test_k_beyond_candidates_names_the_bound(self, two_pair_dataset):
        with pytest.raises(ParameterError, match="4 available"):
            knn_indices(two_pair_dataset, [0.0, 0.0], KnnConfig(k=5))
        with pytest.raises(ParameterError, match="3 available"):
            knn_indices(
                two_pair_dataset,
                [0.0, 0.0],
                KnnConfig(k=4, include_self=False),
                exclude_index=0,
            )

    def test_rejects_dimension_mismatch_and_non_finite_query(self, two_pair_dataset):
        with pytest.raises(ParameterError):
            knn_indices(two_pair_dataset, [0.0], KnnConfig(k=1))
        with pytest.raises(ParameterError):
            knn_indices(two_pair_dataset, [np.inf, 0.0], KnnConfig(k=1))

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_matches_full_sort_oracle(self, duplicates):
        rng = np.random.default_rng(23 if duplicates else 29)
        for _ in range(25):
            dataset = random_dataset(rng, duplicates=duplicates)
            k = int(rng.integers(1, dataset.n + 1))
            query = rng.normal(size=dataset.dim)
            got = knn_indices(dataset, query, KnnConfig(k=k))
            want = oracle_knn(dataset.features.tolist(), query.tolist(), k)
            assert got.tolist() == want

    def test_exclude_index_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            dataset = random_dataset(rng, duplicates=True)
            k = int(rng.integers(1, dataset.n))
            row = int(rng.integers(0, dataset.n))
            got = knn_indices(
                dataset, dataset.features[row], KnnConfig(k=k, include_self=False), row
            )
            want = oracle_knn(dataset.features.tolist(), dataset.features[row].tolist(), k, row)
            assert got.tolist() == want

    def test_scaling_features_preserves_neighbors(self):
        rng = np.random.default_rng(37)
        dataset = random_dataset(rng, n=50, dim=3, num_classes=2)
        query = rng.normal(size=3)
        config = KnnConfig(k=7)
        base = knn_indices(dataset, query, config)
        scaled = LabeledDataset(dataset.features * 3.5, dataset.labels, dataset.class_names)
        assert knn_indices(scaled, query * 3.5, config).tolist() == base.tolist()


class TestEstimateLabelDistribution:
    def test_pure_neighborhood_is_one_hot(self, two_pair_dataset):
        probs = label_distributions(two_pair_dataset, [[0.0, 0.0]], KnnConfig(k=2))[0]
        np.testing.assert_allclose(probs, [1.0, 0.0])

    def test_k_equal_n_gives_global_frequency(self, two_pair_dataset):
        probs = label_distributions(two_pair_dataset, [[0.0, 0.0]], KnnConfig(k=4))[0]
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_single_class_dataset_is_one_hot(self):
        dataset = LabeledDataset(np.arange(6.0).reshape(3, 2), np.zeros(3, dtype=int), ("only",))
        probs = label_distributions(dataset, [[10.0, -1.0]], KnnConfig(k=2))[0]
        np.testing.assert_allclose(probs, [1.0])

    def test_outputs_are_distributions(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            dataset = random_dataset(rng)
            k = int(rng.integers(1, dataset.n + 1))
            probs = label_distributions(
                dataset, [rng.normal(size=dataset.dim)], KnnConfig(k=k)
            )[0]
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_row_permutation_leaves_output_unchanged(self):
        rng = np.random.default_rng(43)
        dataset = random_dataset(rng, n=60, dim=4, num_classes=3)
        query = rng.normal(size=4)
        config = KnnConfig(k=9)
        base = label_distributions(dataset, [query], config)[0]
        perm = rng.permutation(60)
        shuffled = LabeledDataset(
            dataset.features[perm], dataset.labels[perm], dataset.class_names
        )
        np.testing.assert_array_equal(
            label_distributions(shuffled, [query], config)[0], base
        )


class TestEstimateAll:
    def test_per_row_hand_example(self, two_pair_dataset):
        got = estimate_all(two_pair_dataset, KnnConfig(k=2))
        np.testing.assert_allclose(got, [[1, 0], [1, 0], [0, 1], [0, 1]])

    def test_k_equal_n_gives_global_frequency_everywhere(self, two_pair_dataset):
        got = estimate_all(two_pair_dataset, KnnConfig(k=4))
        np.testing.assert_allclose(got, np.full((4, 2), 0.5))

    def test_single_point_dataset(self):
        dataset = LabeledDataset(np.array([[1.0]]), np.array([0]), ("z",))
        np.testing.assert_allclose(estimate_all(dataset, KnnConfig(k=1)), [[1.0]])

    def test_rows_match_per_query_calls(self):
        rng = np.random.default_rng(47)
        dataset = random_dataset(rng, n=40, dim=2, num_classes=3)
        for include_self in (True, False):
            config = KnnConfig(k=5, include_self=include_self)
            got = estimate_all(dataset, config)
            for i in range(dataset.n):
                leave_out = None if include_self else [i]
                np.testing.assert_array_equal(
                    got[i],
                    label_distributions(dataset, [dataset.features[i]], config, leave_out)[0],
                )
