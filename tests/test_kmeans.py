import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from klvq import KmeansModel, ParameterError, kmeans_assign, kmeans_fit
from klvq import kmeans

from oracles import oracle_broadcast_nearest, oracle_nearest, oracle_repair

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


def reference_kmeans_fit(features, K, seed, max_iters):
    """The Lloyd loop with every iteration computed: the centroids, the
    inertia trace, the final assignment and the assignment each iteration
    started from (None for the Forgy iteration)."""
    X = np.asarray(features, dtype=np.float64)
    centroids = X[np.random.default_rng(seed).choice(X.shape[0], size=K, replace=False)].copy()
    rows = np.arange(X.shape[0])
    assignment, trace, starts = None, [], []
    for _ in range(max_iters):
        starts.append(assignment)
        sq = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        proposed = np.argmin(sq, axis=1)
        repaired = oracle_repair(proposed, K, sq[rows, proposed])
        for m in range(K):
            centroids[m] = X[repaired == m].mean(axis=0)
        trace.append(float(((X - centroids[repaired]) ** 2).sum()))
        if assignment is not None and np.array_equal(proposed, assignment):
            break
        assignment = repaired
    return centroids, trace, assignment, starts


def first_repeat(starts):
    """The first iteration that starts from the assignment of an earlier
    one, or None; starts as reference_kmeans_fit returns them."""
    seen = set()
    for iteration, start in enumerate(starts[1:], 1):
        if start.tobytes() in seen:
            return iteration
        seen.add(start.tobytes())
    return None


def reference_kmeans_stop(features, K, seed, max_iters):
    """reference_kmeans_fit cut at the first repeated assignment: the
    iterations kmeans_fit computes, and what it must return."""
    repeat = first_repeat(reference_kmeans_fit(features, K, seed, max_iters)[-1])
    return reference_kmeans_fit(features, K, seed, min(max_iters, repeat or max_iters))


def repeating_rows(seed):
    """105 rows on 7 distinct points."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(7, 2))[rng.permutation(np.arange(105) % 7)]


class TestKmeansReplay:
    """105 rows on 7 distinct points: with K > 7 two centroids coincide, the
    repair moves the same point every iteration, and the loop revisits its
    assignment without reaching an assignment fixpoint. The fit stops there."""

    @pytest.mark.parametrize("K", [8, 12])
    @pytest.mark.parametrize("seed", range(3))
    def test_replay_equals_the_full_loop(self, K, seed, monkeypatch):
        points = repeating_rows(seed)
        repeat = first_repeat(reference_kmeans_fit(points, K, seed, 200)[-1])
        assert repeat is not None
        calls = []
        real_nearest = kmeans._nearest

        def counted(features, centroids):
            calls.append(features.shape[0])
            return real_nearest(features, centroids)

        monkeypatch.setattr(kmeans, "_nearest", counted)
        for max_iters in (*range(1, repeat + 3), 200):
            centroids, trace, assignment, _ = reference_kmeans_fit(points, K, seed, min(max_iters, repeat))
            calls.clear()
            model, part = kmeans_fit(points, K, seed=seed, max_iters=max_iters)
            np.testing.assert_array_equal(model.centroids.view(np.uint64), centroids.view(np.uint64))
            assert model.inertia_trace == tuple(trace)
            np.testing.assert_array_equal(part.assignment, assignment)
            assert len(calls) == model.iterations_run == min(max_iters, repeat)
        assert model.iterations_run < 200

    @pytest.mark.parametrize("seed", range(8))
    def test_stopped_fits_are_fixpoints_or_repeats(self, seed):
        """A fit that stops before max_iters stops at an assignment
        fixpoint or a repeat, so more iterations change nothing: refitting
        with max_iters = iterations_run + 5 gives the same trace, partition
        and centroids."""
        rng = np.random.default_rng(seed)
        points = repeating_rows(seed) if seed % 2 else random_features(rng, n=60, dim=2)
        K, max_iters = int(rng.integers(2, 13)), int(rng.integers(2, 12))
        model, part = kmeans_fit(points, K, seed=seed, max_iters=max_iters)
        if model.iterations_run == max_iters:
            return
        again, part_again = kmeans_fit(points, K, seed=seed, max_iters=model.iterations_run + 5)
        assert again.inertia_trace == model.inertia_trace
        np.testing.assert_array_equal(part_again.assignment, part.assignment)
        np.testing.assert_array_equal(again.centroids.view(np.uint64), model.centroids.view(np.uint64))


def tied_grid(rng, n, K, d):
    """Integer rows and centroids with exact distance ties: one centroid
    duplicated, half of the rows at midpoints between two centroids and a
    quarter on centroids."""
    centroids = rng.integers(-3, 4, size=(K, d)).astype(np.float64)
    centroids[rng.integers(K)] = centroids[rng.integers(K)]
    features = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
    pairs = rng.integers(K, size=(2, n))
    features[: n // 2] = (centroids[pairs[0, : n // 2]] + centroids[pairs[1, : n // 2]]) / 2
    features[n // 2 : 3 * n // 4] = centroids[pairs[0, n // 2 : 3 * n // 4]]
    return features, centroids


def near_centroids(rng, n, K, d):
    """Rows a relative 1e-12 away from Gaussian centroids, so that the
    screen settles nearly every row."""
    centroids = rng.normal(size=(K, d))
    return centroids[rng.integers(K, size=n)] * (1 + 1e-12 * rng.normal(size=(n, d))), centroids


def gaussian(rng, n, K, d):
    return rng.normal(size=(n, d)), rng.normal(size=(K, d))


def assert_nearest_is_the_broadcast(features, centroids):
    """_nearest gives the broadcast's codes and the same warning messages."""
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = oracle_broadcast_nearest(features, centroids)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = kmeans._nearest(features, centroids)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert {str(w.message) for w in got_warnings} == {str(w.message) for w in want_warnings}


class TestNearestScreen:
    """The GEMM screen of _nearest settles only rows its error bound
    certifies; every code must equal the broadcast form bit for bit."""

    @pytest.mark.parametrize("d", range(1, 21))
    def test_tied_integer_grids(self, d):
        rng = np.random.default_rng(d)
        for K in range(1, 41):
            assert_nearest_is_the_broadcast(*tied_grid(rng, 24, K, d))

    @pytest.mark.parametrize("make", [tied_grid, near_centroids, gaussian])
    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1.0, 1e150, 1e155, 1e200, 1e300])
    def test_extreme_magnitudes(self, make, scale):
        # Squares underflow below 1e-154 and overflow above 1e154.
        rng = np.random.default_rng(int(np.log10(scale)) + 200)
        for trial in range(120):
            features, centroids = make(rng, int(rng.integers(1, 40)), 1 + trial % 40, int(rng.integers(1, 21)))
            assert_nearest_is_the_broadcast(features * scale, centroids * scale)

    @pytest.mark.parametrize(
        "centroids", [[[1e200, 0.0]], [[3e154, 3e154]], [[0.0, 0.0], [1e300, 1.0]]], ids=["far", "edge", "one-far"]
    )
    def test_overflowing_rows_warn_as_the_broadcast_does(self, centroids):
        # Small rows, a centroid whose squared distance overflows: the rows
        # must be summed the exact way, which warns.
        assert_nearest_is_the_broadcast(np.array([[0.0, 1.0], [2.0, -1.0]]), np.array(centroids))

    def test_rows_of_mixed_magnitudes_in_small_blocks(self, monkeypatch):
        rng = np.random.default_rng(4)
        monkeypatch.setattr(kmeans, "BLOCK_CELLS", 50)
        for K, d in [(1, 3), (7, 2), (12, 9), (40, 20)]:
            grid, centroids = tied_grid(rng, 60, K, d)
            features = np.vstack([grid, rng.normal(size=(30, d)) * 1e-160, rng.normal(size=(30, d))])
            model = KmeansModel(centroids=centroids, inertia_trace=(0.0,))
            np.testing.assert_array_equal(model.codes(features), oracle_broadcast_nearest(features, centroids))

    @pytest.mark.parametrize("seed", range(8))
    def test_repair_heavy_fits_equal_the_reference(self, seed):
        # Fewer distinct rows than clusters: centroids coincide and the
        # repair refills empty clusters in every iteration.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 10))
        distinct = rng.integers(-2, 3, size=(int(rng.integers(2, 7)), d)).astype(np.float64)
        points = distinct[rng.integers(distinct.shape[0], size=int(rng.integers(20, 90)))]
        K = int(rng.integers(distinct.shape[0] + 1, min(points.shape[0], 16) + 1))
        centroids, trace, assignment, _ = reference_kmeans_stop(points, K, seed, 40)
        model, part = kmeans_fit(points, K, seed=seed, max_iters=40)
        np.testing.assert_array_equal(model.centroids.view(np.uint64), centroids.view(np.uint64))
        assert model.inertia_trace == tuple(trace)
        np.testing.assert_array_equal(part.assignment, assignment)

    def test_builds_no_rows_by_centroids_by_dimension_temporary(self):
        rng = np.random.default_rng(0)
        features, centroids = rng.normal(size=(4000, 16)), rng.normal(size=(16, 16))
        tracemalloc.start()
        try:
            kmeans._nearest(features, centroids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < features.shape[0] * centroids.size * 8 / 2


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
