import math
import re
import warnings

import numpy as np
import pytest

from klvq import (
    DomainError,
    ParameterError,
    Partition,
    SmoothingConfig,
    kl_divergence,
    kl_matrix,
    objective,
    smooth,
)

from oracles import oracle_kl, oracle_objective


def random_distributions(rng, count, num_classes):
    """Strictly positive random distributions, one per row."""
    raw = rng.uniform(0.01, 1.0, size=(count, num_classes))
    return raw / raw.sum(axis=1, keepdims=True)


class TestKlDivergence:
    def test_identical_distributions_are_at_zero(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_one_hot_against_uniform_is_ln2(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_skewed_pair_matches_term_by_term_value(self):
        # 0.75*ln(1.5) + 0.25*ln(0.5), frozen from the independent oracle.
        expected = 0.13081203594113694
        assert oracle_kl([0.75, 0.25], [0.5, 0.5]) == pytest.approx(expected, abs=1e-15)
        assert kl_divergence([0.75, 0.25], [0.5, 0.5]) == pytest.approx(expected, abs=1e-12)

    def test_zero_in_p_contributes_nothing(self):
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_unsmoothed_zero_in_reference_raises(self):
        with pytest.raises(DomainError, match="unsmoothed zero in reference distribution"):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ParameterError):
            kl_divergence([1.0], [0.5, 0.5])

    def test_is_not_symmetric(self):
        p, q = [0.75, 0.25], [0.5, 0.5]
        assert kl_divergence(p, q) != kl_divergence(q, p)

    def test_gibbs_inequality_on_random_pairs(self):
        rng = np.random.default_rng(7)
        ps = random_distributions(rng, 2000, 4)
        qs = random_distributions(rng, 2000, 4)
        for p, q in zip(ps, qs):
            value = kl_divergence(p, q)
            assert value >= -1e-12
            if np.max(np.abs(p - q)) <= 1e-9:
                assert abs(value) <= 1e-12
            else:
                assert value > 1e-12

    def test_agrees_with_oracle_on_random_pairs(self):
        rng = np.random.default_rng(11)
        ps = random_distributions(rng, 200, 5)
        qs = random_distributions(rng, 200, 5)
        for p, q in zip(ps, qs):
            assert kl_divergence(p, q) == pytest.approx(oracle_kl(p, q), rel=1e-12)


class TestKlMatrix:
    def test_matches_scalar_divergence_entrywise(self):
        rng = np.random.default_rng(3)
        P = random_distributions(rng, 20, 3)
        Q = random_distributions(rng, 5, 3)
        kls = kl_matrix(P, Q)
        for i in range(20):
            for m in range(5):
                assert kls[i, m] == kl_divergence(P[i], Q[m])

    def test_rejects_ragged_shapes(self):
        with pytest.raises(ParameterError):
            kl_matrix(np.ones((2, 3)) / 3, np.ones((2, 4)) / 4)

    def test_propagates_reference_zero_error(self):
        with pytest.raises(DomainError):
            kl_matrix(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))


class TestSmooth:
    def test_zero_epsilon_gives_raw_frequency(self):
        np.testing.assert_allclose(smooth(np.array([2, 1]), SmoothingConfig(0.0)), [2 / 3, 1 / 3])

    def test_unit_epsilon_example(self):
        np.testing.assert_allclose(smooth(np.array([2, 1]), SmoothingConfig(1.0)), [3 / 5, 2 / 5])

    def test_empty_counts_fall_back_to_uniform(self):
        np.testing.assert_allclose(smooth(np.array([0, 0]), SmoothingConfig(1e-6)), [0.5, 0.5])

    def test_empty_counts_without_smoothing_raise(self):
        with pytest.raises(DomainError, match="empty subset with no smoothing"):
            smooth(np.array([0, 0]), SmoothingConfig(0.0))

    def test_negative_counts_raise(self):
        with pytest.raises(ParameterError):
            smooth(np.array([-1, 2]), SmoothingConfig(1e-6))

    def test_matrix_rows_raise_like_vectors(self):
        with pytest.raises(DomainError, match="empty subset with no smoothing"):
            smooth(np.array([[2, 1], [0, 0]]), SmoothingConfig(0.0))
        with pytest.raises(ParameterError, match="nonnegative"):
            smooth(np.array([[2, 1], [-1, 2]]), SmoothingConfig(1e-6))
        with pytest.raises(ParameterError, match="shape"):
            smooth(np.ones((2, 2, 2)), SmoothingConfig(1e-6))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_counts_raise(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="counts must be finite and nonnegative"):
                smooth(np.array([bad, 1.0]), SmoothingConfig(1e-6))
            with pytest.raises(ParameterError, match="counts must be finite and nonnegative"):
                smooth(np.array([[2.0, 1.0], [1.0, bad]]), SmoothingConfig(0.0))

    def test_negative_epsilon_raises(self):
        with pytest.raises(ParameterError):
            SmoothingConfig(-1e-9)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, True, "0.1"])
    def test_non_finite_or_non_real_epsilon_raises(self, epsilon):
        with pytest.raises(ParameterError, match="epsilon must be a finite real number"):
            SmoothingConfig(epsilon)

    @pytest.mark.parametrize(
        "counts, epsilon",
        [
            ([[3.0, 0.0]], 1e308),
            ([3.0, 0.0], 1e308),
            ([[1.0, 2.0], [0.0, 0.0]], 1e308),
            ([0.0, 0.0, 0.0], 6e307),
            ([1e308, 1e308], 0.0),
        ],
    )
    def test_overflowing_denominator_raises_naming_epsilon_and_C(self, counts, epsilon):
        """Dividing by an infinite denominator gave rows of zeros, which later
        failed as an unsmoothed zero in a reference distribution."""
        C = np.shape(counts)[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=re.escape(f"overflows with epsilon={epsilon!r}, C={C}")):
                smooth(np.array(counts), SmoothingConfig(epsilon))

    @pytest.mark.parametrize("epsilon", [1e300, 1e307, 5e307, 5.9e307])
    def test_finite_denominators_are_smoothed_as_before(self, epsilon):
        counts = np.array([[3.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        denom = counts.sum(axis=1, keepdims=True) + epsilon * 3
        assert np.all(np.isfinite(denom))
        np.testing.assert_array_equal(smooth(counts, SmoothingConfig(epsilon)), (counts + epsilon) / denom)

    def test_output_is_a_distribution_for_random_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            counts = rng.integers(0, 50, size=rng.integers(1, 8))
            probs = smooth(counts, SmoothingConfig(1e-6))
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) <= 1e-9
            if counts.sum() > 0:
                raw = smooth(counts, SmoothingConfig(0.0))
                assert np.all(raw >= 0)
                assert abs(raw.sum() - 1.0) <= 1e-9


class TestObjective:
    def test_zero_when_points_match_their_subset(self):
        dists = np.array([[0.2, 0.8], [0.7, 0.3], [0.7, 0.3]])
        partition = Partition(np.array([0, 1, 1]), 2)
        subset_dists = np.array([[0.2, 0.8], [0.7, 0.3]])
        assert objective(dists, partition, subset_dists) == 0.0

    def test_two_opposed_one_hots_in_one_subset(self):
        dists = np.array([[1.0, 0.0], [0.0, 1.0]])
        partition = Partition(np.array([0, 0]), 1)
        value = objective(dists, partition, np.array([[0.5, 0.5]]))
        assert value == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_single_point_reduces_to_kl(self):
        p = np.array([[0.3, 0.7]])
        q = np.array([[0.6, 0.4]])
        assert objective(p, Partition(np.array([0]), 1), q) == kl_divergence(p[0], q[0])

    def test_matches_triple_loop_oracle_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 100))
            num_subsets = int(rng.integers(1, 8))
            num_classes = int(rng.integers(2, 5))
            P = random_distributions(rng, n, num_classes)
            Q = random_distributions(rng, num_subsets, num_classes)
            assignment = rng.integers(0, num_subsets, size=n)
            got = objective(P, Partition(assignment, num_subsets), Q)
            want = oracle_objective(P.tolist(), assignment.tolist(), Q.tolist())
            assert got == pytest.approx(want, rel=1e-10)

    def test_length_mismatch_raises(self):
        with pytest.raises(ParameterError):
            objective(np.ones((3, 2)) / 2, Partition(np.array([0, 0]), 1), np.ones((1, 2)) / 2)

    def test_subset_count_mismatch_raises(self):
        P = np.ones((3, 2)) / 2
        with pytest.raises(ParameterError, match=r"\(3, C\) subset distributions"):
            objective(P, Partition(np.array([0, 1, 2]), 3), np.ones((2, 2)) / 2)

    def test_class_count_mismatch_raises(self):
        with pytest.raises(ParameterError, match=r"got \(3, 2\) and \(2, 3\)"):
            objective(np.ones((3, 2)) / 2, Partition(np.array([0, 1, 0]), 2), np.ones((2, 3)) / 3)
