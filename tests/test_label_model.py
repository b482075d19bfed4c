import numpy as np
import pytest

from klvq import (
    FeatureBag,
    KmeansModel,
    KnnConfig,
    LabeledDataset,
    ParameterError,
    QuantizerConfig,
    estimate_all,
    fit,
    kmeans_fit,
    knn_indices,
    label_distributions,
)
from klvq import label_model
from klvq.label_model import real_matrix

from oracles import oracle_in_order_knn, oracle_knn


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


# Query batches for a d = 2 training set that real_matrix rejects.
BAD_QUERIES = {
    "string": [["1.0", "2.0"]],
    "boolean": [[True, False]],
    "complex": np.array([[1 + 0j, 2.0]]),
    "object": np.array([[1.0, 2.0]], dtype=object),
    "empty": np.empty((0, 2)),
}


class TestQueryValidation:
    @pytest.fixture
    def models(self, two_pair_dataset):
        klvq_model, _, _ = fit(two_pair_dataset, QuantizerConfig(M=2, knn=KnnConfig(k=2)))
        kmeans_model, _ = kmeans_fit(two_pair_dataset.features, 2)
        return klvq_model, kmeans_model

    @pytest.mark.parametrize("name", list(BAD_QUERIES))
    def test_codes_reject_non_real_or_empty_batches(self, models, name):
        for model in models:
            with pytest.raises(ParameterError, match="query vectors"):
                model.codes(BAD_QUERIES[name])

    @pytest.mark.parametrize("name", list(BAD_QUERIES))
    def test_knn_indices_rejects_non_real_or_empty_queries(self, two_pair_dataset, name):
        query = BAD_QUERIES[name][0] if len(BAD_QUERIES[name]) else np.empty(0)
        with pytest.raises(ParameterError, match="query vectors"):
            knn_indices(two_pair_dataset, query, KnnConfig(k=1))


RAGGED = [[1.0, 2.0], [1.0]]


class TestRaggedInput:
    def test_real_matrix_names_the_matrix(self):
        with pytest.raises(ParameterError, match="^features must be an \\(N, d\\) matrix, got rows of unequal length$"):
            real_matrix(RAGGED, "features")

    def test_codes_reject_ragged_batches(self, two_pair_dataset):
        klvq_model, _, _ = fit(two_pair_dataset, QuantizerConfig(M=2, knn=KnnConfig(k=2)))
        kmeans_model, _ = kmeans_fit(two_pair_dataset.features, 2)
        for model in (klvq_model, kmeans_model):
            with pytest.raises(ParameterError, match="^query vectors must be an"):
                model.codes(RAGGED)

    def test_constructors_reject_ragged_matrices(self):
        with pytest.raises(ParameterError, match="^features must be an"):
            LabeledDataset(RAGGED, np.array([0, 0]), ("a",))
        with pytest.raises(ParameterError, match="^centroids must be an"):
            KmeansModel(centroids=RAGGED, inertia_trace=(0.0,))
        with pytest.raises(ParameterError, match="^descriptors of item 'x' must be an"):
            FeatureBag("x", RAGGED, label=0)


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


class TestPrunedSearch:
    """label_distributions skips the k-d leaves that lie farther from a query
    group than its bound; these tests watch which rows each group searches."""

    @pytest.fixture
    def searched(self, monkeypatch):
        """(query block, searched rows or None for all rows) of every group."""
        calls = []
        k_nearest = label_model._k_nearest

        def spy(columns, queries, rows, leave_out, k):
            calls.append((queries.copy(), rows))
            return k_nearest(columns, queries, rows, leave_out, k)

        monkeypatch.setattr(label_model, "_k_nearest", spy)
        return calls

    def test_a_group_keeps_no_leaf_of_the_far_cluster(self, searched):
        rng = np.random.default_rng(53)
        near = rng.uniform(0.0, 1.0, size=(200, 2))
        dataset = LabeledDataset(np.vstack([near, near + 100.0]), np.repeat([0, 1], 200), ("near", "far"))
        queries = np.vstack([near[:64], near[:64] + 100.0]) + 0.25
        got = label_distributions(dataset, queries, KnnConfig(k=10))
        np.testing.assert_array_equal(got, np.repeat([[1.0, 0.0], [0.0, 1.0]], 64, axis=0))
        assert sum(block.shape[0] for block, _ in searched) == 128
        for block, rows in searched:
            far = bool(block[0, 0] > 50.0)
            assert rows is not None and (block[:, 0] > 50.0).all() == far
            assert ((rows >= 200) == far).all()

    def test_distances_overflowing_to_inf_search_every_row(self, monkeypatch, searched):
        # With k = 2 the second-nearest distance of the query 0 overflows to
        # inf, so the bound is inf and every group searches all rows.
        monkeypatch.setattr(label_model, "LEAF_SIZE", 1)
        monkeypatch.setattr(label_model, "GROUP_SIZE", 1)
        features = np.array([[2e154], [-2e154], [1e100], [3e154], [-3e154]])
        dataset = LabeledDataset(features, np.array([0, 1, 1, 0, 1]), ("a", "b"))
        with np.errstate(over="ignore"):
            got = label_distributions(dataset, [[0.0], [1e100]], KnnConfig(k=2))
        # Row 2 is nearest; rows 0, 1, 3 and 4 tie at inf and row 0 wins.
        np.testing.assert_array_equal(got, [[0.5, 0.5], [0.5, 0.5]])
        assert len(searched) == 2 and all(rows is None for _, rows in searched)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("include_self", [True, False])
    def test_groups_of_many_queries_match_the_oracle(self, monkeypatch, searched, dim, include_self):
        # Six clusters of rows and queries on a coarse grid, so distances tie
        # often, in groups of up to 16 queries that must share one bound.
        monkeypatch.setattr(label_model, "LEAF_SIZE", 4)
        monkeypatch.setattr(label_model, "GROUP_SIZE", 16)
        rng = np.random.default_rng(59 + dim)
        centers = rng.integers(-10, 11, size=(6, dim)) * 2.0
        features = centers[rng.integers(0, 6, size=240)] + rng.integers(-4, 5, size=(240, dim)) / 2.0
        dataset = LabeledDataset(features, rng.integers(0, 4, size=240), ("a", "b", "c", "d"))
        config = KnnConfig(k=7, include_self=include_self)
        if include_self:
            queries = features + rng.integers(-1, 2, size=features.shape) / 4.0
            got = label_distributions(dataset, queries, config)
        else:
            queries = features
            got = estimate_all(dataset, config)
        assert any(rows is not None for _, rows in searched)
        for i, query in enumerate(queries):
            exclude = None if include_self else i
            neighbors = oracle_knn(features.tolist(), query.tolist(), 7, exclude)
            want = np.bincount(dataset.labels[neighbors], minlength=4) / 7.0
            np.testing.assert_array_equal(got[i], want)

    def test_a_d16_group_searches_only_the_screened_rows(self, searched):
        # At d = 16 the k-d bound keeps every leaf, so each group is
        # screened: it must search far fewer rows than all of them.
        rng = np.random.default_rng(61)
        features = rng.normal(size=(1200, 16))
        dataset = LabeledDataset(features, rng.integers(0, 3, size=1200), ("a", "b", "c"))
        config = KnnConfig(k=10, include_self=False)
        got = estimate_all(dataset, config)
        assert sum(block.shape[0] for block, _ in searched) == 1200
        assert all(rows is not None and rows.shape[0] < 1200 // 2 for _, rows in searched)
        want = oracle_in_order_knn(features, features, 10, np.arange(1200))
        np.testing.assert_array_equal(got, [np.bincount(dataset.labels[r], minlength=3) / 10.0 for r in want])

    @pytest.mark.parametrize("d", [8, 16, 33])
    def test_rows_mirrored_through_the_query_keep_the_exact_order(self, d):
        # A row x and its mirror 2q - x are equally far from q in exact
        # arithmetic, so rounding alone orders each pair; an odd k splits
        # a pair at the kth neighbor, where the screen must keep both.
        for trial in range(60):
            rng = np.random.default_rng(trial)
            query = rng.normal(size=d)
            base = rng.normal(size=(20, d))
            features = np.vstack([base, 2.0 * query - base])
            dataset = LabeledDataset(features, np.arange(40) % 3, ("a", "b", "c"))
            k = 2 * int(rng.integers(0, 20)) + 1
            got = knn_indices(dataset, query, KnnConfig(k=k))
            np.testing.assert_array_equal(got, oracle_in_order_knn(features, query[None], k)[0])
