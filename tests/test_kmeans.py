import dataclasses

import numpy as np
import pytest

from klvq import KmeansModel, ParameterError, kmeans_assign, kmeans_fit

from oracles import oracle_nearest

TWO_CLUSTERS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])


def random_features(rng, n=None, dim=None):
    n = n or int(rng.integers(3, 120))
    dim = dim or int(rng.integers(1, 6))
    return rng.normal(size=(n, dim))


class TestKmeansFit:
    def test_two_cluster_hand_example(self):
        # Seed 1 samples one initial row from each side, which is the basin
        # of the hand-computed optimum.
        model, part = kmeans_fit(TWO_CLUSTERS, 2, seed=1)
        np.testing.assert_allclose(
            sorted(model.centroids.tolist()), [[0.0, 0.5], [10.0, 0.5]], atol=1e-12
        )
        assert model.inertia == pytest.approx(1.0, abs=1e-12)
        assert part.assignment[0] == part.assignment[1]
        assert part.assignment[2] == part.assignment[3]
        assert part.assignment[0] != part.assignment[2]

    def test_k_equal_n_gives_zero_inertia(self):
        rng = np.random.default_rng(5)
        points = random_features(rng, n=12, dim=3)
        model, part = kmeans_fit(points, 12, seed=2)
        assert model.inertia <= 1e-12
        np.testing.assert_allclose(
            sorted(model.centroids.tolist()), sorted(points.tolist()), atol=1e-12
        )
        assert sorted(part.assignment.tolist()) == list(range(12))

    def test_k_one_gives_global_mean(self):
        rng = np.random.default_rng(6)
        points = random_features(rng, n=40, dim=2)
        model, part = kmeans_fit(points, 1, seed=0)
        np.testing.assert_allclose(model.centroids[0], points.mean(axis=0), atol=1e-12)
        want = ((points - points.mean(axis=0)) ** 2).sum()
        assert model.inertia == pytest.approx(want, abs=1e-12)
        assert part.assignment.tolist() == [0] * 40

    @pytest.mark.parametrize("seed", range(6))
    def test_inertia_trace_is_non_increasing(self, seed):
        rng = np.random.default_rng(seed)
        points = random_features(rng)
        K = int(rng.integers(1, min(10, points.shape[0]) + 1))
        model, _ = kmeans_fit(points, K, seed=seed)
        trace = np.array(model.inertia_trace)
        assert trace.shape[0] == model.iterations_run
        assert np.all(np.diff(trace) <= 1e-9)
        assert model.inertia == trace[-1]

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(9)
        points = random_features(rng, n=60, dim=2)
        model_a, part_a = kmeans_fit(points, 4, seed=11)
        model_b, part_b = kmeans_fit(points, 4, seed=11)
        np.testing.assert_array_equal(model_a.centroids, model_b.centroids)
        np.testing.assert_array_equal(part_a.assignment, part_b.assignment)
        assert model_a.inertia_trace == model_b.inertia_trace

    def test_clusters_are_never_empty(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            points = random_features(rng, n=int(rng.integers(5, 40)))
            K = int(rng.integers(2, points.shape[0] + 1))
            _, part = kmeans_fit(points, K, seed=int(rng.integers(100)))
            assert np.bincount(part.assignment, minlength=K).min() >= 1

    def test_k_beyond_n_raises(self):
        with pytest.raises(ParameterError):
            kmeans_fit(TWO_CLUSTERS, 5, seed=0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"K": 3.0}, {"K": True}, {"K": 3, "seed": 1.5}, {"K": 3, "max_iters": 2.5}, {"K": 3, "seed": -1}],
        ids=["real-K", "boolean-K", "real-seed", "real-max-iters", "negative-seed"],
    )
    def test_non_integer_arguments_raise_parameter_error(self, kwargs):
        points = random_features(np.random.default_rng(8), n=10, dim=2)
        with pytest.raises(ParameterError):
            kmeans_fit(points, **kwargs)

    def test_non_finite_features_raise(self):
        with pytest.raises(ParameterError):
            kmeans_fit(np.array([[np.nan, 0.0]]), 1, seed=0)


class TestKmeansModelValidation:
    @pytest.mark.parametrize(
        "trace",
        [(2.0, np.nan), (2.0, np.inf), (2.0, True), (np.nan, 1.0), (np.inf,), "12"],
        ids=["nan-inertia", "inf-inertia", "boolean-inertia", "nan-trace", "inf-trace", "string-trace"],
    )
    def test_non_finite_or_non_real_diagnostics_raise(self, trace):
        # The inertia is the last trace entry, so the "-inertia" cases spoil that entry.
        with pytest.raises(ParameterError, match="finite real number"):
            KmeansModel(centroids=TWO_CLUSTERS, inertia_trace=trace)

    @pytest.mark.parametrize("trace", [(), [], (1.0, -0.5)], ids=["empty-tuple", "empty-list", "negative-entry"])
    def test_empty_or_negative_trace_raises(self, trace):
        with pytest.raises(ParameterError, match="inertia_trace"):
            KmeansModel(centroids=TWO_CLUSTERS, inertia_trace=trace)

    def test_inertia_must_be_the_last_trace_entry(self):
        model = KmeansModel(centroids=TWO_CLUSTERS, inertia_trace=[2.0, 1.0])
        assert model.inertia_trace == (2.0, 1.0)
        assert (model.K, model.M, model.inertia, model.iterations_run) == (4, 4, 1.0, 2)

    def test_holds_only_centroids_and_trace(self):
        assert [f.name for f in dataclasses.fields(KmeansModel)] == ["centroids", "inertia_trace"]
        with pytest.raises(TypeError):
            KmeansModel(centroids=TWO_CLUSTERS)


class TestKmeansAssign:
    @pytest.fixture
    def model(self):
        model, _ = kmeans_fit(TWO_CLUSTERS, 2, seed=1)
        return model

    def test_centroid_itself_maps_to_its_index(self, model):
        for j, centroid in enumerate(model.centroids):
            assert kmeans_assign(model, centroid) == j

    def test_equidistant_query_breaks_to_lower_index(self):
        model = KmeansModel(centroids=np.array([[0.0, 0.0], [2.0, 0.0]]), inertia_trace=(0.0,))
        assert kmeans_assign(model, [1.0, 5.0]) == 0

    def test_hand_computed_query(self, model):
        ordered = np.array(sorted(model.centroids.tolist()))
        model2 = KmeansModel(centroids=ordered, inertia_trace=(1.0,))
        assert kmeans_assign(model2, [9.0, 0.0]) == 1

    def test_matches_exhaustive_scan_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            centroids = random_features(rng, n=int(rng.integers(1, 16)))
            model = KmeansModel(centroids=centroids, inertia_trace=(0.0,))
            for _ in range(5):
                query = rng.normal(size=centroids.shape[1])
                got = kmeans_assign(model, query)
                assert got == oracle_nearest(centroids.tolist(), query.tolist())

    def test_dimension_mismatch_raises(self, model):
        with pytest.raises(ParameterError, match="dimension"):
            kmeans_assign(model, [1.0, 2.0, 3.0])
