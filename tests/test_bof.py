import numpy as np
import pytest

from klvq import (
    FeatureBag,
    KnnConfig,
    ParameterError,
    QuantizerConfig,
    SmoothingConfig,
    build_histogram,
    class_mode_layout,
    classify_1nn,
    estimate_all,
    evaluate,
    fit,
    generate_synthetic,
    kmeans_fit,
)
from klvq import bof

from oracles import oracle_evaluate


def bag_of(values, label=None, item_id="item"):
    """One-dimensional descriptors whose value is the wanted subset index."""
    return FeatureBag(item_id, np.array(values, dtype=float).reshape(-1, 1), label)


def first_column(descriptors):
    return descriptors[:, 0].astype(np.int64)


def normalized(counts):
    """Each row of counts divided by its total, as evaluate normalizes a histogram."""
    counts = np.atleast_2d(counts)
    return counts / counts.sum(axis=1, keepdims=True)


class TestBuildHistogram:
    def test_all_descriptors_in_one_subset(self):
        got = build_histogram([2, 2, 2], [3], 4)
        assert got.dtype == np.int64
        assert got.tolist() == [[0, 0, 3, 0]]
        np.testing.assert_allclose(normalized(got), [[0, 0, 1, 0]])

    def test_mixed_tally(self):
        got = build_histogram([0, 1, 1, 3], [4], 4)
        assert got.tolist() == [[1, 2, 0, 1]]

    def test_single_descriptor_is_one_hot(self):
        got = build_histogram([1], [1], 3)
        assert got.tolist() == [[0, 1, 0]]
        assert normalized(got).sum() == 1.0

    def test_counts_conserve_bag_size(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            size = int(rng.integers(1, 60))
            M = int(rng.integers(1, 9))
            got = build_histogram(rng.integers(0, M, size=size), [size], M)
            assert got.sum() == size
            assert normalized(got).sum() == pytest.approx(1.0, abs=1e-12)

    def test_each_row_counts_its_own_bag(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            M = int(rng.integers(1, 9))
            sizes = rng.integers(1, 12, size=int(rng.integers(1, 6)))
            codes = rng.integers(0, M, size=sizes.sum())
            got = build_histogram(codes, sizes, M)
            bounds = np.cumsum(sizes)[:-1]
            want = [np.bincount(part, minlength=M) for part in np.split(codes, bounds)]
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got.sum(axis=1), sizes)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64, np.int64])
    def test_every_integer_dtype_counts_alike(self, dtype):
        got = build_histogram(np.array([0, 1, 1, 2], dtype=dtype), [1, 3], 3)
        assert got.dtype == np.int64
        assert got.tolist() == [[1, 0, 0], [0, 2, 1]]

    def test_out_of_range_index_raises(self):
        with pytest.raises(ParameterError):
            build_histogram([5], [1], 4)

    @pytest.mark.parametrize(
        "codes, sizes",
        [([0, 1], [1]), ([0.0], [1]), ([[0]], [1]), ([0, 1], [2, 0]), ([0, 1], [[2]]), ([0, 1], [1.0, 1.0])],
    )
    def test_malformed_codes_or_sizes_raise(self, codes, sizes):
        with pytest.raises(ParameterError):
            build_histogram(np.array(codes), sizes, 2)


class TestClassify1nn:
    def test_identical_histogram_wins(self):
        train = normalized([[3, 1], [1, 3]])
        assert classify_1nn(train, [0, 1], normalized([[3, 1], [1, 3]])).tolist() == [0, 1]

    def test_single_training_histogram_always_wins(self):
        train = normalized([1, 0, 0])
        queries = normalized([[0, 0, 5], [1, 1, 1], [4, 0, 4]])
        assert classify_1nn(train, [2], queries).tolist() == [2, 2, 2]

    def test_l1_hand_example(self):
        train = normalized([[1, 0], [0, 1]])
        query = normalized([3, 2])  # (0.6, 0.4): distances 0.8 vs 1.2
        assert classify_1nn(train, [0, 1], query, "l1").tolist() == [0]

    def test_l2_distance_mode(self):
        train = normalized([[1, 0], [0, 1]])
        assert classify_1nn(train, [0, 1], normalized([1, 4]), "l2").tolist() == [1]

    def test_tie_breaks_to_lowest_training_index(self):
        train = normalized([[1, 1], [1, 1]])
        assert classify_1nn(train, [5, 7], normalized([1, 1])).tolist() == [5]

    def test_bin_count_mismatch_raises(self):
        with pytest.raises(ParameterError):
            classify_1nn(normalized([1, 0]), [0], normalized([1, 0, 0]))

    def test_unknown_distance_raises(self):
        with pytest.raises(ParameterError):
            classify_1nn(normalized([1, 0]), [0], normalized([1, 0]), "cosine")

    def test_one_label_per_training_row_is_required(self):
        with pytest.raises(ParameterError, match="^train_labels must hold one label per training row"):
            classify_1nn(normalized([[1, 0], [0, 1]]), [0], normalized([1, 0]))


class TestEvaluate:
    def test_test_set_equal_to_train_set_is_perfect(self):
        bags = [bag_of([0, 0, 1], label=0), bag_of([1, 1, 2], label=1), bag_of([2, 2, 0], label=2)]
        report = evaluate(bags, bags, "tag", first_column, 3)
        assert report.overall_accuracy == 1.0
        np.testing.assert_array_equal(report.confusion, np.eye(3, dtype=int) * 1)

    def test_constant_classifier_scores_the_class_frequency(self):
        train = [bag_of([0, 1], label=1)]
        test = [bag_of([0, 0], label=0), bag_of([1, 1], label=1), bag_of([0, 1], label=1)]
        report = evaluate(train, test, "tag", first_column, 2)
        assert report.overall_accuracy == pytest.approx(2 / 3)
        assert report.confusion[:, 1].sum() == 3

    def test_report_internal_consistency(self):
        rng = np.random.default_rng(9)
        train = [bag_of(rng.integers(0, 4, size=12), label=int(rng.integers(0, 3))) for _ in range(9)]
        test = [bag_of(rng.integers(0, 4, size=12), label=int(rng.integers(0, 3))) for _ in range(15)]
        report = evaluate(train, test, "tag", first_column, 4)
        assert report.confusion.sum() == len(test)
        assert report.overall_accuracy == np.trace(report.confusion) / report.confusion.sum()
        for c in range(report.confusion.shape[0]):
            row = report.confusion[c]
            want = [bag.label for bag in test].count(c)
            assert row.sum() == want
            if row.sum() > 0:
                assert report.per_class_accuracy[c] == row[c] / row.sum()

    @pytest.mark.parametrize("label", [-1, 1.0, 1.5, "1", True])
    def test_negative_or_non_integer_bag_label_raises(self, label):
        with pytest.raises(ParameterError, match="label of item 'item'"):
            bag_of([0], label=label)

    def test_integer_bag_labels_are_stored_as_int(self):
        bag = bag_of([0], label=np.int64(2))
        assert type(bag.label) is int and bag.label == 2
        assert bag_of([0]).label is None

    def test_missing_labels_raise(self):
        with pytest.raises(ParameterError):
            evaluate([bag_of([0], label=None)], [bag_of([0], label=0)], "t", first_column, 1)

    def test_mixed_descriptor_dimensions_name_the_first_odd_item(self):
        train = [bag_of([0, 1], label=0, item_id="a"), bag_of([1], label=1, item_id="b")]
        wide = FeatureBag("c", np.zeros((2, 2)), label=0)
        test = [bag_of([0], label=0, item_id="d"), wide, FeatureBag("e", np.zeros((1, 3)), label=1)]
        with pytest.raises(ParameterError, match="item 'c' has descriptor dimension 2, the first item 'a' has 1"):
            evaluate(train, test, "t", first_column, 2)

    def test_repeated_evaluation_is_identical(self):
        rng = np.random.default_rng(10)
        train = [bag_of(rng.integers(0, 3, size=8), label=int(rng.integers(0, 2))) for _ in range(6)]
        test = [bag_of(rng.integers(0, 3, size=8), label=int(rng.integers(0, 2))) for _ in range(6)]
        first = evaluate(train, test, "t", first_column, 3)
        second = evaluate(train, test, "t", first_column, 3)
        np.testing.assert_array_equal(first.confusion, second.confusion)
        assert first.overall_accuracy == second.overall_accuracy

    def test_rejects_a_bad_distance_before_quantizing(self):
        def never_called(descriptors):
            raise AssertionError("codes_fn ran before the distance was checked")

        bags = [bag_of([0], label=0)]
        with pytest.raises(ParameterError) as from_classify:
            classify_1nn(normalized([1]), [0], normalized([1]), "cosine")
        with pytest.raises(ParameterError) as from_evaluate:
            evaluate(bags, bags, "t", never_called, 1, "cosine")
        assert str(from_evaluate.value) == str(from_classify.value) == "distance must be one of ('l1', 'l2'), got 'cosine'"

    @pytest.mark.parametrize("M",[0, -1, 2.5, True, "3"])
    def test_rejects_a_bad_M_by_name(self, M):
        bags = [bag_of([0], label=0)]
        with pytest.raises(ParameterError, match="^M must be"):
            evaluate(bags, bags, "t", first_column, M)
        with pytest.raises(ParameterError, match="^M must be"):
            build_histogram([0], [1], M)


class TestEvaluateMatchesThePerBagOracle:
    """evaluate's confusion equals the per-bag path of tests/oracles.py exactly.

    Codes are drawn from a range narrower than M, and bags often hold one
    descriptor, so equal histograms and distance ties are common. Small
    BLOCK_CELLS values split the queries into blocks of one or a few rows.
    """

    @pytest.mark.parametrize("block_cells", [1, 7, 64, bof.BLOCK_CELLS])
    @pytest.mark.parametrize("distance", bof.DISTANCES)
    def test_random_bags(self, distance, block_cells, monkeypatch):
        monkeypatch.setattr(bof, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(block_cells)
        for M in range(1, 71):
            span = int(rng.integers(1, M + 1))
            num_classes = int(rng.integers(1, 5))

            def bags(count):
                sizes = rng.choice([1, 1, 2, 5, 30], size=count)
                labels = rng.integers(0, num_classes, size=count)
                return [bag_of(rng.integers(0, span, size=n), int(c)) for n, c in zip(sizes, labels)]

            train, test = bags(int(rng.integers(1, 12))), bags(int(rng.integers(1, 12)))
            got = evaluate(train, test, "t", first_column, M, distance).confusion
            np.testing.assert_array_equal(got, oracle_evaluate(train, test, first_column, M, distance))

    @pytest.mark.parametrize("distance", bof.DISTANCES)
    def test_test_set_equal_to_train_set_and_identical_bags_in_different_classes(self, distance, monkeypatch):
        monkeypatch.setattr(bof, "BLOCK_CELLS", 5)
        bags = [
            bag_of([0, 1], label=2),
            bag_of([1, 0], label=0),
            bag_of([1], label=1),
            bag_of([1, 1, 1], label=0),
            bag_of([0, 0, 1, 1], label=1),
            bag_of([2], label=3),
        ]
        want = oracle_evaluate(bags, bags, first_column, 3, distance)
        np.testing.assert_array_equal(evaluate(bags, bags, "t", first_column, 3, distance).confusion, want)
        # Bags 1 and 4 take the label of bag 0, which has their histogram; bag 3 takes bag 2's.
        assert want[0, 2] == 1 and want[0, 1] == 1 and want.trace() == 3

    @pytest.mark.parametrize("distance", bof.DISTANCES)
    def test_kmeans_codes_on_synthetic_bags(self, distance):
        train, test, dataset = generate_synthetic(2, 3, 8, 12, 2, 1.0)
        model, _ = kmeans_fit(dataset.features, 6, seed=0)
        got = evaluate(train, test, "kmeans", model.codes, 6, distance).confusion
        np.testing.assert_array_equal(got, oracle_evaluate(train, test, model.codes, 6, distance))


class TestClassModeLayout:
    def test_simplex_pairwise_distances(self):
        for num_classes, dim in ((2, 1), (2, 3), (3, 2), (4, 3), (5, 6)):
            modes, background = class_mode_layout(num_classes, dim, 6.0)
            for i in range(num_classes):
                for j in range(i + 1, num_classes):
                    dist = np.linalg.norm(modes[i] - modes[j])
                    assert dist == pytest.approx(6.0, abs=1e-9)
            np.testing.assert_allclose(background, modes.mean(axis=0), atol=1e-12)

    def test_circle_layout_adjacent_distance(self):
        modes, _ = class_mode_layout(8, 2, 4.0)
        for i in range(8):
            dist = np.linalg.norm(modes[i] - modes[(i + 1) % 8])
            assert dist == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("separation", [np.nan, np.inf, -np.inf, "a", None, True])
    def test_rejects_a_non_finite_or_non_real_separation_by_name(self, separation):
        with pytest.raises(ParameterError, match="^separation must be a finite real number"):
            class_mode_layout(3, 2, separation)

    def test_line_layout_spacing(self):
        modes, _ = class_mode_layout(4, 1, 2.5)
        np.testing.assert_allclose(np.diff(modes[:, 0]), [2.5, 2.5, 2.5], atol=1e-12)


class TestGenerateSynthetic:
    def test_same_seed_reproduces_identical_bags(self):
        first = generate_synthetic(7, 3, 4, 6, 2, 1.0)
        second = generate_synthetic(7, 3, 4, 6, 2, 1.0)
        for bag_a, bag_b in zip(first[0] + first[1], second[0] + second[1]):
            assert bag_a.item_id == bag_b.item_id
            assert bag_a.label == bag_b.label
            np.testing.assert_array_equal(bag_a.descriptors, bag_b.descriptors)
        np.testing.assert_array_equal(first[2].features, second[2].features)

    def test_zero_noise_without_background_gives_exact_point_labels(self):
        _, _, dataset = generate_synthetic(5, 3, 4, 5, 2, 0.0, background_rate=0.0)
        dists = estimate_all(dataset, KnnConfig(k=1, include_self=False))
        expected = np.zeros((dataset.n, 3))
        expected[np.arange(dataset.n), dataset.labels] = 1.0
        np.testing.assert_array_equal(dists, expected)

    def test_kmeans_recovers_separated_modes(self):
        _, _, dataset = generate_synthetic(3, 3, 10, 20, 2, 0.5, background_rate=0.0)
        generative = 0.0
        for c in range(3):
            members = dataset.features[dataset.labels == c]
            generative += ((members - members.mean(axis=0)) ** 2).sum()
        model, _ = kmeans_fit(dataset.features, 3, seed=0)
        assert abs(model.inertia - generative) <= 0.05 * generative

    def test_label_information_pipeline_sanity(self):
        # Zero overlap, M = C: the KL quantizer must classify perfectly.
        train_bags, test_bags, dataset = generate_synthetic(
            11, 3, 6, 10, 2, 0.0, background_rate=0.0
        )
        config = QuantizerConfig(
            M=3, knn=KnnConfig(k=5), smoothing=SmoothingConfig(1e-6), seed=0, init="kmeans"
        )
        model, _, _ = fit(dataset, config)
        report = evaluate(train_bags, test_bags, "klvq", model.codes, 3)
        assert report.overall_accuracy == 1.0

    def test_rejects_a_negative_seed_by_name(self):
        with pytest.raises(ParameterError, match="^seed must be >= 0, got -1$"):
            generate_synthetic(-1, 1, 1, 1, 1, 0.0)

    @pytest.mark.parametrize("noise", [np.inf, np.nan])
    def test_rejects_non_finite_noise_by_name(self, noise):
        with pytest.raises(ParameterError, match="^noise must be a finite real number"):
            generate_synthetic(0, 1, 1, 1, 1, noise)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((2.5, 1, 1, 1), "num_classes"),
            ((np.float64(3.0), 1, 1, 1), "num_classes"),
            ((1, True, 1, 1), "items_per_class"),
            ((1, 1, "4", 1), "descriptors_per_item"),
            ((1, 1, 1, 2.0), "dim"),
        ],
    )
    def test_rejects_non_integer_counts_by_name(self, args, name):
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            generate_synthetic(0, *args, 0.0)
        if name in ("num_classes", "dim"):
            with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
                class_mode_layout(args[0], args[3])

    @pytest.mark.parametrize("background_rate", ["x", None, True, np.nan])
    def test_rejects_a_non_real_background_rate_by_name(self, background_rate):
        with pytest.raises(ParameterError, match="^background_rate must be a finite real number"):
            generate_synthetic(0, 1, 1, 1, 1, 0.0, background_rate=background_rate)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            generate_synthetic(0, 0, 1, 1, 1, 0.0)
        with pytest.raises(ParameterError):
            generate_synthetic(0, 1, 1, 1, 1, -0.5)
        with pytest.raises(ParameterError):
            generate_synthetic(0, 1, 1, 1, 1, 0.0, background_rate=1.5)
