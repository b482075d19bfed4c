import dataclasses
import math

import numpy as np
import pytest

from klvq import (
    DomainError,
    KnnConfig,
    LabeledDataset,
    ParameterError,
    Partition,
    QuantizerConfig,
    QuantizerModel,
    SmoothingConfig,
    assign_step,
    estimate_all,
    fit,
    generate_synthetic,
    init_partition,
    kl_matrix,
    label_distributions,
    objective,
    quantize,
    repair_empty,
    smooth,
    update_subset_distributions,
)
from klvq import quantizer
from klvq.divergence import PointTable
from klvq.quantizer import _repair_empty_subsets

from oracles import oracle_assign, oracle_objective, oracle_repair

E0 = SmoothingConfig(0.0)
E6 = SmoothingConfig(1e-6)


def grouped_dataset(group_mixes):
    """Coincident groups at far-apart locations; one distribution value per group.

    With k = group size and include_self=True every member's kNN set is exactly
    its own group, so point distributions equal the group label frequencies.
    """
    feats, labels = [], []
    for g, labs in enumerate(group_mixes):
        for lab in labs:
            feats.append([100.0 * g, 0.0])
            labels.append(lab)
    num_classes = max(labels) + 1
    return LabeledDataset(
        np.array(feats), np.array(labels), tuple(f"c{i}" for i in range(num_classes))
    )


def random_positive_dists(rng, count, num_classes):
    raw = rng.uniform(0.05, 1.0, size=(count, num_classes))
    return raw / raw.sum(axis=1, keepdims=True)


def random_fit_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 60))
    num_classes = int(rng.integers(2, 4))
    dataset = LabeledDataset(
        rng.normal(size=(n, 2)),
        rng.integers(0, num_classes, size=n),
        tuple(f"c{i}" for i in range(num_classes)),
    )
    config = QuantizerConfig(
        M=int(rng.integers(1, 6)),
        knn=KnnConfig(k=min(int(rng.integers(3, 12)), n)),
        smoothing=E6,
        max_iters=80,
        seed=seed,
        init="random",
        update_mode="paper" if seed % 2 else "centroid",
    )
    return dataset, config


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            QuantizerConfig(M=0)
        with pytest.raises(ParameterError):
            QuantizerConfig(M=1, max_iters=0)
        with pytest.raises(ParameterError):
            QuantizerConfig(M=1, seed=-1)
        with pytest.raises(ParameterError):
            QuantizerConfig(M=1, init="other")
        with pytest.raises(ParameterError):
            QuantizerConfig(M=1, update_mode="other")

    def test_partition_validates_indices(self):
        with pytest.raises(ParameterError):
            Partition(np.array([0, 2]), 2)
        with pytest.raises(ParameterError):
            Partition(np.array([-1]), 1)

    @pytest.mark.parametrize(
        "assignment, M",
        [
            ([0.5, 1.7], 2),
            (np.array([0.0, 1.0]), 2),
            ([True, False], 2),
            (np.array([True, False]), 2),
            ([0, True], 2),
            ([0, 1], 2.0),
        ],
    )
    def test_partition_rejects_real_or_boolean_values(self, assignment, M):
        with pytest.raises(ParameterError, match="must be (an )?integers?"):
            Partition(assignment, M)


class TestInitPartition:
    def test_m_equal_n_yields_singletons(self):
        dataset = grouped_dataset([[0, 1, 0, 1]])
        for seed in (0, 1, 5, 9):
            config = QuantizerConfig(M=4, knn=KnnConfig(k=2), seed=seed)
            part = init_partition(dataset, config)
            assert sorted(part.assignment.tolist()) == [0, 1, 2, 3]

    def test_single_subset_is_all_zeros(self):
        dataset = grouped_dataset([[0, 1, 0, 1, 0, 1]])
        part = init_partition(dataset, QuantizerConfig(M=1, knn=KnnConfig(k=2)))
        assert part.assignment.tolist() == [0] * 6

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(0)
        dataset = LabeledDataset(
            rng.normal(size=(100, 3)), rng.integers(0, 2, size=100), ("a", "b")
        )
        config = QuantizerConfig(M=5, knn=KnnConfig(k=5), seed=7)
        first = init_partition(dataset, config)
        second = init_partition(dataset, config)
        np.testing.assert_array_equal(first.assignment, second.assignment)

    def test_m_larger_than_n_raises(self):
        dataset = grouped_dataset([[0, 1]])
        with pytest.raises(ParameterError):
            init_partition(dataset, QuantizerConfig(M=3, knn=KnnConfig(k=1)))

    def test_unsmoothed_random_init_fills_every_subset(self):
        # Two label-pure clusters: every KL the repair needs is finite at epsilon 0.
        dataset = LabeledDataset(
            np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]]),
            np.array([0, 0, 0, 1, 1, 1]),
            ("a", "b"),
        )
        for seed in range(200):
            config = QuantizerConfig(M=5, knn=KnnConfig(k=3), smoothing=E0, seed=seed)
            part = init_partition(dataset, config)
            assert part.subset_sizes().min() == 1

    def test_kmeans_init_matches_feature_grouping(self):
        dataset = grouped_dataset([[0, 0, 1], [1, 1, 0]])
        config = QuantizerConfig(M=2, knn=KnnConfig(k=3), seed=3, init="kmeans")
        part = init_partition(dataset, config)
        assert len(set(part.assignment[:3].tolist())) == 1
        assert len(set(part.assignment[3:].tolist())) == 1
        assert part.assignment[0] != part.assignment[3]


class TestUpdateSubsetDistributions:
    def test_paper_mode_counts_member_labels(self):
        partition = Partition(np.array([0, 0, 0]), 1)
        got = update_subset_distributions(partition, np.array([0, 0, 1]), 2, "paper", None, E0)
        np.testing.assert_allclose(got, [[2 / 3, 1 / 3]])

    def test_centroid_mode_averages_member_distributions(self):
        partition = Partition(np.array([0, 0]), 1)
        dists = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = update_subset_distributions(partition, np.array([0, 1]), 2, "centroid", dists, E0)
        np.testing.assert_allclose(got, [[0.5, 0.5]])

    def test_empty_subset_becomes_uniform(self):
        partition = Partition(np.array([0, 0]), 2)
        got = update_subset_distributions(partition, np.array([0, 1]), 2, "paper", None, E6)
        np.testing.assert_allclose(got[1], [0.5, 0.5])

    def test_empty_subset_without_smoothing_raises(self):
        partition = Partition(np.array([0, 0]), 2)
        with pytest.raises(DomainError, match="empty subset with no smoothing"):
            update_subset_distributions(partition, np.array([0, 1]), 2, "paper", None, E0)

    @pytest.mark.parametrize("mode", ["paper", "centroid"])
    @pytest.mark.parametrize(
        "labels",
        [[0.9, 1.0], np.array([0.0, 1.0]), [True, False], [0, 2], [-1, 0], [0, 1, 1]],
        ids=["real-list", "real-array", "boolean", "beyond-C", "negative", "too-many"],
    )
    def test_rejects_bad_labels_before_counting(self, mode, labels):
        partition = Partition(np.array([0, 1]), 2)
        dists = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ParameterError, match="labels"):
            update_subset_distributions(partition, labels, 2, mode, dists, E6)

    def test_centroid_mode_rejects_misshapen_point_dists(self):
        partition = Partition(np.array([0, 1]), 2)
        for dists in (np.ones((2, 1)), np.full((3, 2), 0.5)):
            with pytest.raises(ParameterError, match="point_dists"):
                update_subset_distributions(partition, [0, 1], 2, "centroid", dists, E6)

    def test_paper_mode_equals_direct_counting_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(4, 120))
            num_subsets = int(rng.integers(1, min(8, n) + 1))
            num_classes = int(rng.integers(2, 5))
            labels = rng.integers(0, num_classes, size=n)
            assignment = rng.integers(0, num_subsets, size=n)
            assignment[:num_subsets] = np.arange(num_subsets)  # no empty subsets
            got = update_subset_distributions(
                Partition(assignment, num_subsets), labels, num_classes, "paper", None, E0
            )
            for m in range(num_subsets):
                member_labels = labels[assignment == m].tolist()
                expected = [member_labels.count(c) / len(member_labels) for c in range(num_classes)]
                assert got[m].tolist() == expected


class TestAssignStep:
    def test_prefers_closest_subset(self):
        part = assign_step(np.array([[1.0, 0.0]]), np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert part.assignment.tolist() == [0]

    def test_identical_subsets_tie_break_to_zero(self):
        dists = random_positive_dists(np.random.default_rng(1), 10, 3)
        q = np.array([[0.2, 0.3, 0.5]] * 4)
        part = assign_step(dists, q)
        assert part.assignment.tolist() == [0] * 10

    def test_exact_match_wins(self):
        q = np.array([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]])
        part = assign_step(np.array([[0.3, 0.7]]), q)
        assert part.assignment.tolist() == [1]

    def test_matches_brute_force_argmin_exactly(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(1, 200))
            num_subsets = int(rng.integers(1, 16))
            num_classes = int(rng.integers(2, 5))
            P = random_positive_dists(rng, n, num_classes)
            Q = random_positive_dists(rng, num_subsets, num_classes)
            if num_subsets >= 2 and rng.random() < 0.5:
                Q[num_subsets - 1] = Q[0]  # exact duplicate rows exercise the tie-break
            got = assign_step(P, Q)
            assert got.assignment.tolist() == oracle_assign(P.tolist(), Q.tolist())

    def test_accepts_nested_lists(self):
        rng = np.random.default_rng(23)
        P = random_positive_dists(rng, 12, 3)
        Q = random_positive_dists(rng, 4, 3)
        got = assign_step(P.tolist(), Q.tolist())
        assert got.M == 4
        np.testing.assert_array_equal(got.assignment, assign_step(P, Q).assignment)

    def test_independent_of_previous_assignment(self):
        rng = np.random.default_rng(21)
        P = random_positive_dists(rng, 30, 2)
        Q = random_positive_dists(rng, 4, 2)
        first = assign_step(P, Q)
        second = assign_step(P[::-1].copy(), Q)
        np.testing.assert_array_equal(first.assignment, second.assignment[::-1])


def kl_to_own(point_dists, subset_dists):
    """repair_empty cost of the KL quantizer: KL of each point to its own subset."""
    kls = kl_matrix(point_dists, subset_dists)
    return lambda assignment: kls[np.arange(kls.shape[0]), assignment]


def sq_to_own(features, centroids):
    """repair_empty cost of k-means: squared distance of each point to its own centroid."""
    sq = ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return lambda assignment: sq[np.arange(sq.shape[0]), assignment]


# Subset 0 holds every point; subsets 1 and 2 are empty. Points 1 and 2 tie
# for the largest own cost (exactly: the same two terms, summed in either
# order), point 3 is a near fit and point 0 a perfect one.
SHARED_RULE_COSTS = {
    "squared-distance": sq_to_own(
        np.array([[0.0], [3.0], [-3.0], [1.0]]), np.array([[0.0], [10.0], [20.0]])
    ),
    "kl": kl_to_own(
        np.array([[0.5, 0.5], [0.9, 0.1], [0.1, 0.9], [0.6, 0.4]]),
        np.array([[0.5, 0.5], [0.2, 0.8], [0.7, 0.3]]),
    ),
}


class TestRepairEmptySubsets:
    def test_moves_largest_kl_point_into_each_empty_subset(self):
        point_dists = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
        subset_dists = np.array([[0.9, 0.1], [0.5, 0.5]])
        assignment = np.array([0, 0, 0])
        repaired = repair_empty(assignment, 2, kl_to_own(point_dists, subset_dists))
        # Point 2 is the worst fit in subset 0, so it seeds the empty subset 1.
        assert repaired.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("cost", SHARED_RULE_COSTS.values(), ids=SHARED_RULE_COSTS.keys())
    def test_farthest_first_lowest_index_on_ties(self, cost):
        calls = []

        def counted(assignment):
            calls.append(assignment.copy())
            return cost(assignment)

        assignment = np.array([0, 0, 0, 0])
        repaired = repair_empty(assignment, 3, counted)
        # Empty subset 1 takes the lower-indexed of the two tied worst fits,
        # empty subset 2 the other one.
        assert repaired.tolist() == [0, 1, 2, 0]
        assert assignment.tolist() == [0, 0, 0, 0]
        assert len(calls) == 1 and calls[0].tolist() == [0, 0, 0, 0]

    def test_cost_is_not_computed_without_empty_subsets(self):
        def never(assignment):
            raise AssertionError("own_cost called with no empty subset")

        assignment = np.array([0, 1, 2, 0])
        assert repair_empty(assignment, 3, never) is assignment

    def test_donors_come_only_from_subsets_with_two_members(self):
        # Point 2 fits worst but is alone in subset 1, so point 1 moves.
        costs = np.array([0.0, 1.0, 5.0])
        repaired = repair_empty(np.array([0, 0, 1]), 3, lambda assignment: costs)
        assert repaired.tolist() == [0, 2, 1]

    def test_skips_a_subset_whose_donors_run_dry_mid_walk(self):
        # Subset 0 gives up point 0 to subset 2 and is then down to one
        # member, so its second-worst point 1 is passed over for point 2.
        costs = np.array([9.0, 8.0, 1.0, 1.0, 1.0])
        assignment = np.array([0, 0, 1, 1, 1])
        repaired = repair_empty(assignment, 4, lambda own: costs)
        assert repaired.tolist() == [2, 0, 3, 1, 1]
        assert repaired.tolist() == oracle_repair(assignment, 4, costs).tolist()

    def test_never_leaves_or_creates_empty_subsets(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            num_subsets = int(rng.integers(2, min(8, n) + 1))
            num_classes = 3
            P = random_positive_dists(rng, n, num_classes)
            Q = random_positive_dists(rng, num_subsets, num_classes)
            assignment = rng.integers(0, max(1, num_subsets - 2), size=n)
            repaired = repair_empty(assignment, num_subsets, kl_to_own(P, Q))
            assert np.bincount(repaired, minlength=num_subsets).min() >= 1
            # The quantizer's KL adapter makes the same moves.
            np.testing.assert_array_equal(
                _repair_empty_subsets(assignment, num_subsets, kl_to_own(P, Q)), repaired
            )


class TestFit:
    def test_recovers_distinct_distribution_groups(self):
        mixes = [[0, 0, 0, 0, 1], [1, 1, 1, 1, 0], [0, 0, 0, 1, 1], [1, 1, 1, 0, 0]]
        for M in (2, 3, 4):
            dataset = grouped_dataset(mixes[:M])
            config = QuantizerConfig(
                M=M, knn=KnnConfig(k=5), smoothing=E6, seed=0, init="kmeans"
            )
            point_dists = estimate_all(dataset, config.knn)
            # Independent check that grouping by distribution value attains the
            # global minimum of (essentially) zero before trusting fit with it.
            ideal = np.repeat(np.arange(M), 5)
            ideal_dists = [
                smooth(np.bincount(dataset.labels[ideal == m], minlength=2), E0)
                for m in range(M)
            ]
            assert oracle_objective(point_dists.tolist(), ideal.tolist(), ideal_dists) == 0.0
            model, part, trace = fit(dataset, config)
            assert model.converged
            assert trace[-1] <= 1e-6
            for g in range(M):
                group = part.assignment[g * 5 : (g + 1) * 5]
                assert len(set(group.tolist())) == 1
            assert len({int(part.assignment[g * 5]) for g in range(M)}) == M

    def test_single_subset_closed_form(self):
        rng = np.random.default_rng(3)
        dataset = LabeledDataset(
            rng.normal(size=(25, 2)), rng.integers(0, 3, size=25), ("a", "b", "c")
        )
        config = QuantizerConfig(M=1, knn=KnnConfig(k=6), smoothing=E6, seed=0)
        model, part, trace = fit(dataset, config)
        assert model.converged
        assert model.iterations_run == 1
        assert part.assignment.tolist() == [0] * 25
        point_dists = estimate_all(dataset, config.knn)
        global_dist = smooth(np.bincount(dataset.labels, minlength=3), E6)
        want = oracle_objective(point_dists.tolist(), [0] * 25, [global_dist.tolist()])
        assert trace[-1] == pytest.approx(want, rel=1e-10)

    def test_rerun_is_identical(self):
        dataset, config = random_fit_instance(11)
        model_a, part_a, trace_a = fit(dataset, config)
        model_b, part_b, trace_b = fit(dataset, config)
        np.testing.assert_array_equal(part_a.assignment, part_b.assignment)
        np.testing.assert_array_equal(model_a.subset_dists, model_b.subset_dists)
        assert trace_a == trace_b
        assert (model_a.iterations_run, model_a.converged) == (
            model_b.iterations_run,
            model_b.converged,
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_partition_stays_valid_and_terminates(self, seed):
        dataset, config = random_fit_instance(seed)
        model, part, trace = fit(dataset, config)
        assert part.n == dataset.n
        assert part.subset_sizes().min() >= 1
        assert model.iterations_run <= config.max_iters
        assert len(trace) == model.iterations_run
        assert np.isfinite(trace).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_converged_fits_are_assignment_fixpoints(self, seed):
        dataset, config = random_fit_instance(seed)
        model, part, trace = fit(dataset, config)
        if not model.converged:
            # A fit that is not at a fixpoint ran until max_iters or stopped
            # at a repeated assignment, where more iterations change nothing.
            if model.iterations_run < config.max_iters:
                again = dataclasses.replace(config, max_iters=model.iterations_run + 5)
                model_again, part_again, trace_again = fit(dataset, again)
                assert trace_again == trace
                np.testing.assert_array_equal(part_again.assignment, part.assignment)
                np.testing.assert_array_equal(
                    model_again.subset_dists.view(np.uint64), model.subset_dists.view(np.uint64)
                )
                assert (model_again.iterations_run, model_again.converged) == (len(trace), False)
            return
        point_dists = estimate_all(dataset, config.knn)
        again = assign_step(point_dists, model.subset_dists)
        np.testing.assert_array_equal(again.assignment, part.assignment)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_paper_fit_on_the_desk_shape_stops_at_its_repeat(self, seed):
        """The paper's setting (3 classes, 3000 descriptors in 2-d, M = 16,
        k = 10): the repair sends the fit back to an assignment it held
        within a few iterations, and the fit reports only the iterations it
        computed, not max_iters."""
        _, _, dataset = generate_synthetic(seed, 3, 20, 50, 2, 1.0)
        config = QuantizerConfig(M=16, knn=KnnConfig(k=10), max_iters=100, seed=seed)
        model, _, trace = fit(dataset, config)
        assert not model.converged
        assert len(trace) == model.iterations_run < config.max_iters

    def test_centroid_mode_objective_is_non_increasing(self):
        # Instances screened for strictly positive point distributions, the
        # hypothesis under which the mean update is the exact KL centroid.
        found = 0
        seed = 100
        while found < 5 and seed < 200:
            rng = np.random.default_rng(seed)
            n = int(rng.integers(40, 80))
            num_classes = int(rng.integers(2, 4))
            dataset = LabeledDataset(
                rng.normal(size=(n, 2)),
                rng.integers(0, num_classes, size=n),
                tuple(f"c{i}" for i in range(num_classes)),
            )
            knn = KnnConfig(k=min(14, n))
            if not np.all(estimate_all(dataset, knn) > 0):
                seed += 1
                continue
            found += 1
            config = QuantizerConfig(
                M=int(rng.integers(2, 5)),
                knn=knn,
                smoothing=E0,
                max_iters=60,
                seed=seed,
                update_mode="centroid",
            )
            _, _, trace = fit(dataset, config)
            assert np.all(np.diff(trace) <= 1e-9)
            seed += 1
        assert found == 5

    def test_m_larger_than_n_raises(self):
        dataset = grouped_dataset([[0, 1]])
        with pytest.raises(ParameterError):
            fit(dataset, QuantizerConfig(M=5, knn=KnnConfig(k=2)))

    @pytest.mark.parametrize(
        "update_mode, init, converged",
        [("paper", "random", False), ("centroid", "kmeans", True)],
    )
    def test_final_objective_equals_objective_of_final_partition(self, update_mode, init, converged):
        # Seed 0 of random_fit_instance's data: the paper fit stops at a
        # repeated assignment, the centroid fit reaches a fixpoint.
        dataset, _ = random_fit_instance(0)
        config = QuantizerConfig(
            M=5, knn=KnnConfig(k=6), smoothing=E6, max_iters=30, seed=2,
            init=init, update_mode=update_mode,
        )
        model, part, trace = fit(dataset, config)
        assert model.converged is converged
        point_dists = estimate_all(dataset, config.knn)
        assert model.final_objective == trace[-1]
        assert model.final_objective == objective(point_dists, part, model.subset_dists)


def duplicate_rows_dataset(seed):
    """60 rows in four far-apart blobs of three labels: with k = 3 most kNN
    label distributions repeat."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0], [50.0, 50.0]])
    features = centers[np.arange(60) % 4] + rng.normal(size=(60, 2))
    return LabeledDataset(features, rng.integers(0, 3, size=60), ("a", "b", "c"))


def reference_fit(dataset, config):
    """The fit loop one row at a time: the KL matrix of all N rows, the
    oracle argmin as the proposal and the oracle repair, every iteration
    computed. Returns the final assignment, the trace, whether it converged,
    the points repaired, the final subset distributions and the assignment
    each iteration started from."""
    point_dists = estimate_all(dataset, config.knn)
    assignment = init_partition(dataset, config, point_dists).assignment
    rows = np.arange(dataset.n)
    trace, repaired_points, starts = [], 0, []
    for _ in range(config.max_iters):
        starts.append(assignment)
        subset_dists = update_subset_distributions(
            Partition(assignment, config.M), dataset.labels, dataset.num_classes,
            config.update_mode, point_dists, config.smoothing,
        )
        kls = kl_matrix(point_dists, subset_dists)
        proposed = np.array(oracle_assign(point_dists.tolist(), subset_dists.tolist()))
        repaired = oracle_repair(proposed, config.M, kls[rows, proposed])
        repaired_points += int(np.count_nonzero(repaired != proposed))
        trace.append(float(kls[rows, repaired].sum()))
        assert trace[-1] == pytest.approx(
            oracle_objective(point_dists.tolist(), repaired.tolist(), subset_dists.tolist()),
            rel=1e-12, abs=1e-12,
        )
        if np.array_equal(proposed, assignment):
            return assignment, trace, True, repaired_points, subset_dists, starts
        assignment = repaired
    return assignment, trace, False, repaired_points, subset_dists, starts


def first_repeat(starts):
    """(first, repeat): repeat is the first iteration that starts from the
    assignment of an earlier iteration, first; None if no assignment
    repeats. fit computes the iterations before repeat, and stops."""
    seen = {}
    for iteration, assignment in enumerate(starts):
        first = seen.setdefault(assignment.tobytes(), iteration)
        if first != iteration:
            return first, iteration
    return None


REFERENCE_CASES = [
    # M, init, seed, update_mode, period of the first repeated assignment
    (12, "random", 0, "paper", 1),
    (12, "random", 0, "centroid", 1),
    (16, "random", 1, "paper", 1),
    (16, "random", 1, "centroid", 1),
    (5, "kmeans", 2, "paper", None),
    (5, "kmeans", 2, "centroid", None),
    (8, "random", 2, "paper", 1),
    (24, "random", 2, "centroid", 2),
    (20, "kmeans", 6, "paper", 3),
]


class TestFitOnDistinctRows:
    @pytest.mark.parametrize(
        "M, init, seed, update_mode, period",
        REFERENCE_CASES,
        ids=["-".join(map(str, case[:4])) for case in REFERENCE_CASES],
    )
    def test_equals_per_row_reference_loop(self, M, init, seed, update_mode, period):
        """fit equals the loop that computes every iteration, cut at the
        first repeated assignment: for cycling cases at every max_iters up to
        two periods past the first repeat, so that runs end before the
        repeat, on the iteration that reaches it and beyond it."""
        dataset = duplicate_rows_dataset(seed)
        config = QuantizerConfig(
            M=M, knn=KnnConfig(k=3), smoothing=E6, max_iters=25, seed=seed,
            init=init, update_mode=update_mode,
        )
        distinct = np.unique(estimate_all(dataset, config.knn), axis=0).shape[0]
        assert distinct <= dataset.n // 4
        *_, converged, repaired_points, _, starts = reference_fit(dataset, config)
        assert repaired_points > 0
        repeat = first_repeat(starts)
        if period is None:
            assert repeat is None and converged
            sweep = [config.max_iters]
        else:
            assert repeat is not None and repeat[1] - repeat[0] == period and not converged
            sweep = [*range(1, repeat[1] + 2 * period + 2), config.max_iters]
        for max_iters in sweep:
            short = dataclasses.replace(config, max_iters=max_iters)
            cut = dataclasses.replace(config, max_iters=min(max_iters, repeat[1]) if repeat else max_iters)
            assignment, trace, converged, _, subset_dists, _ = reference_fit(dataset, cut)
            model, part, got_trace = fit(dataset, short)
            np.testing.assert_array_equal(part.assignment, assignment)
            np.testing.assert_array_equal(model.subset_dists.view(np.uint64), subset_dists.view(np.uint64))
            assert got_trace == trace
            assert (model.iterations_run, model.converged) == (len(trace), converged)

    def test_kl_work_is_one_row_per_distinct_distribution(self, monkeypatch):
        """fit builds one point table of the U distinct rows and computes KL
        columns on it once per iteration, only for the subsets whose
        distributions changed, and stops at the first repeated assignment;
        codes runs one assign_step per block of queries, each on a table of
        that block's distinct distributions."""
        dataset = duplicate_rows_dataset(3)
        config = QuantizerConfig(M=8, knn=KnnConfig(k=3), smoothing=E6, max_iters=10, seed=3)
        _, repeat = first_repeat(reference_fit(dataset, config)[-1])
        tables, columns, blocks = [], [], []
        real_of, real_kl, real_assign = PointTable.of.__func__, PointTable.kl, quantizer.assign_step

        def counted_of(cls, point_dists):
            table = real_of(cls, point_dists)
            tables.append(table.pair_index.shape[0])
            return table

        def counted_kl(table, subset_dists):
            columns.append((table.pair_index.shape[0], np.shape(subset_dists)[0]))
            return real_kl(table, subset_dists)

        def counted_assign(point_dists, subset_dists):
            blocks.append(point_dists.copy())
            return real_assign(point_dists, subset_dists)

        monkeypatch.setattr(PointTable, "of", classmethod(counted_of))
        monkeypatch.setattr(PointTable, "kl", counted_kl)
        monkeypatch.setattr(quantizer, "assign_step", counted_assign)
        model, _, trace = fit(dataset, config)
        distinct = np.unique(estimate_all(dataset, config.knn), axis=0).shape[0]
        assert distinct < dataset.n and repeat == len(trace) < config.max_iters
        assert tables == [distinct] and blocks == []
        assert [rows for rows, _ in columns] == [distinct] * repeat
        assert columns[0][1] == config.M and sum(m for _, m in columns) < config.M * repeat

        tables.clear()
        columns.clear()
        step = 7
        monkeypatch.setattr(quantizer, "BLOCK_CELLS", step * model.subset_dists.size)
        queries = np.vstack([dataset.features, dataset.features + 0.25])
        codes = model.codes(queries)
        query_dists = label_distributions(dataset, queries, config.knn)
        assert [block.shape[0] for block in blocks] == [step] * (queries.shape[0] // step) + [queries.shape[0] % step]
        np.testing.assert_array_equal(np.vstack(blocks), query_dists)
        unique_per_block = [np.unique(block, axis=0).shape[0] for block in blocks]
        assert tables == unique_per_block and columns == [(u, config.M) for u in unique_per_block]
        assert sum(unique_per_block) < queries.shape[0]
        assert codes.tolist() == oracle_assign(query_dists.tolist(), model.subset_dists.tolist())

    @pytest.mark.parametrize("step", [1, 2, 3, 5, 8, None])
    def test_codes_equal_the_oracle_when_blocks_split_runs_of_equal_distributions(self, monkeypatch, step):
        """Each query row is repeated five times, so runs of equal kNN
        distributions straddle the edges of blocks of step rows; every block
        dedups its own rows, and the codes equal the row-by-row oracle."""
        dataset = duplicate_rows_dataset(5)
        config = QuantizerConfig(M=6, knn=KnnConfig(k=3), smoothing=E6, max_iters=10, seed=5)
        model, _, _ = fit(dataset, config)
        queries = np.repeat(np.vstack([dataset.features, dataset.features[::-1] + 0.5]), 5, axis=0)
        query_dists = label_distributions(dataset, queries, config.knn)
        if step is not None:
            monkeypatch.setattr(quantizer, "BLOCK_CELLS", step * model.subset_dists.size)
            edges = np.arange(step, queries.shape[0], step)
            assert (query_dists[edges] == query_dists[edges - 1]).all(axis=1).any()
        codes = model.codes(queries)
        assert codes.dtype == np.int64 and codes.shape == (queries.shape[0],)
        assert codes.tolist() == oracle_assign(query_dists.tolist(), model.subset_dists.tolist())
        assert len(set(codes.tolist())) > 1


class TestQuantize:
    def _manual_model(self, subset_dists, epsilon=0.0):
        dataset = grouped_dataset([[0, 0, 0, 0, 1], [1, 1, 1, 1, 0]])
        config = QuantizerConfig(
            M=len(subset_dists), knn=KnnConfig(k=5), smoothing=SmoothingConfig(epsilon)
        )
        return QuantizerModel(
            subset_dists=np.array(subset_dists),
            config=config,
            training_set=dataset,
            final_objective=0.0,
            iterations_run=1,
            converged=True,
        )

    def test_training_vector_with_matching_subset_distribution(self):
        # Row 0's point distribution is (0.8, 0.2), exactly subset 1's value.
        model = self._manual_model([[0.2, 0.8], [0.8, 0.2], [0.5, 0.5]])
        assert quantize(model, [0.0, 0.0]) == 1

    def test_identical_subset_distributions_give_zero(self):
        model = self._manual_model([[0.5, 0.5], [0.5, 0.5]])
        for query in ([0.0, 0.0], [100.0, 0.0], [55.0, 3.0]):
            assert quantize(model, query) == 0

    def test_deep_class_region_matches_brute_force(self):
        dataset = grouped_dataset([[0] * 6, [1] * 6])
        config = QuantizerConfig(M=2, knn=KnnConfig(k=6), smoothing=E6, seed=1, init="kmeans")
        model, _, _ = fit(dataset, config)
        query = np.array([-2.0, 0.5])  # deep inside the class-0 group's region
        p = np.bincount(
            dataset.labels[
                np.argsort(np.sum((dataset.features - query) ** 2, axis=1))[:6]
            ],
            minlength=2,
        ) / 6.0
        want = oracle_assign([p.tolist()], model.subset_dists.tolist())[0]
        got = quantize(model, query)
        assert got == want
        assert model.subset_dists[got, 0] == max(model.subset_dists[:, 0])

    def test_dimension_mismatch_raises(self):
        model = self._manual_model([[0.5, 0.5]])
        with pytest.raises(ParameterError, match="dimension"):
            quantize(model, [1.0, 2.0, 3.0])

    def test_scaling_dataset_and_query_preserves_output(self):
        rng = np.random.default_rng(51)
        dataset = LabeledDataset(
            rng.normal(size=(40, 2)), rng.integers(0, 2, size=40), ("a", "b")
        )
        config = QuantizerConfig(M=3, knn=KnnConfig(k=5), smoothing=E6, seed=4)
        scale = 0.37
        scaled = LabeledDataset(dataset.features * scale, dataset.labels, dataset.class_names)
        model, part, _ = fit(dataset, config)
        model_s, part_s, _ = fit(scaled, config)
        np.testing.assert_array_equal(part.assignment, part_s.assignment)
        for _ in range(10):
            query = rng.normal(size=2)
            assert quantize(model, query) == quantize(model_s, query * scale)


class TestModelValidation:
    def test_rejects_non_distribution_rows(self):
        dataset = grouped_dataset([[0, 1]])
        config = QuantizerConfig(M=1, knn=KnnConfig(k=2))
        with pytest.raises(ParameterError):
            QuantizerModel(
                subset_dists=np.array([[0.7, 0.7]]),
                config=config,
                training_set=dataset,
                final_objective=0.0,
                iterations_run=1,
                converged=True,
            )

    def test_rejects_non_finite_objective(self):
        dataset = grouped_dataset([[0, 1]])
        config = QuantizerConfig(M=1, knn=KnnConfig(k=2))
        with pytest.raises(ParameterError):
            QuantizerModel(
                subset_dists=np.array([[0.5, 0.5]]),
                config=config,
                training_set=dataset,
                final_objective=math.inf,
                iterations_run=1,
                converged=True,
            )

    @pytest.mark.parametrize(
        "subset_dists, k, message",
        [
            ([[0.5, 0.5]], 2, r"subset_dists must be \(1, 3\)"),
            ([[0.2, 0.3, 0.5]], 4, "k=4 exceeds the 3 training rows"),
        ],
        ids=["one-column-per-class", "k-beyond-training-rows"],
    )
    def test_rejects_model_its_training_set_cannot_serve(self, subset_dists, k, message):
        with pytest.raises(ParameterError, match=message):
            QuantizerModel(
                subset_dists=np.array(subset_dists),
                config=QuantizerConfig(M=1, knn=KnnConfig(k=k)),
                training_set=grouped_dataset([[0, 1, 2]]),
                final_objective=0.0,
                iterations_run=1,
                converged=True,
            )
