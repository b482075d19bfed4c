"""Property tests: the batch quantization paths equal the row-by-row oracles.

Coordinates are drawn partly from a coarse grid and some rows are repeated,
so that distance ties, including ties at the kth neighbor, are common. The
block size is also drawn, so that batches cross block boundaries, and so
are the k-d leaf and query group sizes of the kNN search, so that these
small datasets split into many leaves and groups and far leaves are skipped.
At d >= 8 groups that skip no leaf are screened by one matrix product; that
screen is also checked on tied integer grids, at magnitudes whose squares
underflow or overflow, and with rows beyond the radius it certifies, where
it must warn exactly as the unscreened search does.

The fit loop's premises are pinned the same way: its own-subset KL terms,
distinct-row KL lookups, subset distributions, smoothing and one-sort
empty-subset repair equal, bit for bit, the per-point, per-subset and
per-empty-subset formulas they replace. kl_matrix, which evaluates each KL
term once per distinct (value, class) pair and subset, equals the sum over
the full (N, M, C) broadcast of terms bit for bit, and raises exactly when
that sum does, and so does the PointTable step that fit applies to the
subsets whose distributions changed.
"""

import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from klvq import (
    DomainError,
    KmeansModel,
    KnnConfig,
    LabeledDataset,
    Partition,
    QuantizerConfig,
    QuantizerModel,
    SmoothingConfig,
    estimate_all,
    kl_matrix,
    knn_indices,
    label_distributions,
    repair_empty,
    smooth,
    update_subset_distributions,
)
from klvq import divergence, kmeans, label_model, quantizer
from klvq.divergence import PointTable, _kl_terms

from oracles import oracle_assign, oracle_in_order_knn, oracle_knn, oracle_nearest, oracle_repair

DIMS = (1, 2, 3, 7, 8, 16, 33)
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

coordinates = st.one_of(
    st.integers(-2, 2).map(lambda v: v / 2.0),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False, allow_subnormal=False),
)
block_cells = st.sampled_from([1, 5, 64, label_model.BLOCK_CELLS])


@contextlib.contextmanager
def blocks_of(cells):
    with pytest.MonkeyPatch.context() as patch:
        for module in (label_model, quantizer, kmeans):
            patch.setattr(module, "BLOCK_CELLS", cells)
        yield


search_sizes = st.sampled_from([1, 2, 4, label_model.LEAF_SIZE])


@contextlib.contextmanager
def leaves_of(leaf_size, group_size):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(label_model, "LEAF_SIZE", leaf_size)
        patch.setattr(label_model, "GROUP_SIZE", group_size)
        yield


def with_repeats(draw, rows):
    """rows plus copies of some of them."""
    copies = draw(st.lists(st.integers(0, rows.shape[0] - 1), max_size=6))
    return np.vstack([rows, rows[copies]])


@st.composite
def knn_cases(draw, dim):
    """A labeled dataset with repeated rows, queries and a legal kNN config."""
    base = draw(arrays(np.float64, (draw(st.integers(1, 16)), dim), elements=coordinates))
    features = with_repeats(draw, base)
    num_classes = draw(st.integers(1, 4))
    labels = draw(arrays(np.int64, features.shape[0], elements=st.integers(0, num_classes - 1)))
    dataset = LabeledDataset(features, labels, tuple(f"c{c}" for c in range(num_classes)))
    extra = draw(arrays(np.float64, (draw(st.integers(0, 6)), dim), elements=coordinates))
    include_self = draw(st.booleans())
    bound = dataset.n if include_self else dataset.n - 1
    assume(bound >= 1)
    config = KnnConfig(k=draw(st.one_of(st.just(bound), st.integers(1, bound))), include_self=include_self)
    return dataset, np.vstack([features, extra]), config


def oracle_distribution(dataset, query, k, exclude_index=None):
    neighbors = oracle_knn(dataset.features.tolist(), query.tolist(), k, exclude_index)
    return np.bincount(dataset.labels[neighbors], minlength=dataset.num_classes) / float(k)


@pytest.mark.parametrize("dim", DIMS)
@SETTINGS
@given(data=st.data())
def test_label_distributions_match_oracle(dim, data):
    dataset, queries, config = data.draw(knn_cases(dim))
    with blocks_of(data.draw(block_cells)), leaves_of(data.draw(search_sizes), data.draw(search_sizes)):
        got = label_distributions(dataset, queries, config)
        got_all = estimate_all(dataset, config)
    want = [oracle_distribution(dataset, q, config.k) for q in queries]
    np.testing.assert_array_equal(got, want)
    want_all = [
        oracle_distribution(dataset, row, config.k, None if config.include_self else i)
        for i, row in enumerate(dataset.features)
    ]
    np.testing.assert_array_equal(got_all, want_all)


@st.composite
def screen_cases(draw, dim):
    """A dataset, queries and a config for the screened search: a tied
    integer grid or drawn coordinates, with rows mirrored through a query
    (equally far from it in exact arithmetic, so that rounding decides their
    order), scaled so that squares may underflow (1e-170) or overflow (1e154
    and up, beyond the certified radius), and sometimes one far row or query
    beyond that radius among ordinary ones."""
    grid = st.integers(-2, 2).map(float)
    elements = grid if draw(st.booleans()) else coordinates
    scale = draw(st.sampled_from([1e-170, 1e-160, 1.0, 1e150, 1e154, 1e200]))
    base = draw(arrays(np.float64, (draw(st.integers(2, 24)), dim), elements=elements))
    queries = draw(arrays(np.float64, (draw(st.integers(1, 8)), dim), elements=elements))
    every_row = st.just(list(range(base.shape[0])))
    mirrored = draw(st.one_of(every_row, st.lists(st.integers(0, base.shape[0] - 1), max_size=8)))
    features = with_repeats(draw, np.vstack([base, 2.0 * queries[0] - base[mirrored]])) * scale
    queries = queries * scale
    far = draw(st.sampled_from(["none", "row", "query"]))
    if far == "row":
        features[draw(st.integers(0, features.shape[0] - 1)), 0] = 1e200
    elif far == "query":
        queries[0, 0] = 1e200
    num_classes = draw(st.integers(1, 4))
    labels = draw(arrays(np.int64, features.shape[0], elements=st.integers(0, num_classes - 1)))
    dataset = LabeledDataset(features, labels, tuple(f"c{c}" for c in range(num_classes)))
    include_self = draw(st.booleans())
    bound = dataset.n if include_self else dataset.n - 1
    config = KnnConfig(k=draw(st.one_of(st.just(bound), st.integers(1, bound))), include_self=include_self)
    return dataset, np.vstack([features, queries]), config


def with_warnings(call):
    """call's result and the set of its warning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, {str(w.message) for w in caught}


@pytest.mark.parametrize("dim", [8, 16, 33])
@SETTINGS
@given(data=st.data())
def test_screened_search_matches_the_in_order_reference(dim, data):
    dataset, queries, config = data.draw(screen_cases(dim))
    k, labels, C = config.k, dataset.labels, dataset.num_classes
    leave_out = None if config.include_self else np.arange(dataset.n)

    def search():
        return (
            label_distributions(dataset, queries, config),
            estimate_all(dataset, config),
            [knn_indices(dataset, q, config, i) for i, q in enumerate(dataset.features[:3])],
            # The center of the mirrored rows, searched alone.
            knn_indices(dataset, queries[dataset.n], KnnConfig(k=k)),
        )

    with leaves_of(data.draw(search_sizes), data.draw(search_sizes)):
        (got, got_all, got_rows, got_center), got_warnings = with_warnings(search)
        with pytest.MonkeyPatch.context() as patch:
            # No radius is certified, so no group is screened.
            patch.setattr(label_model, "_MAX_RADIUS", -np.inf)
            unscreened, want_warnings = with_warnings(search)
    with np.errstate(over="ignore"):
        want_rows = oracle_in_order_knn(dataset.features, queries, k)
        want_rows_all = oracle_in_order_knn(dataset.features, dataset.features, k, leave_out)

    def counts(rows):
        return np.array([np.bincount(labels[r], minlength=C) for r in rows]) / float(k)

    np.testing.assert_array_equal(got, counts(want_rows))
    np.testing.assert_array_equal(got_all, counts(want_rows_all))
    for i, rows in enumerate(got_rows):
        np.testing.assert_array_equal(rows, want_rows_all[i])
    np.testing.assert_array_equal(got_center, want_rows[dataset.n])
    np.testing.assert_array_equal(unscreened[1], got_all)
    assert got_warnings == want_warnings


@pytest.mark.parametrize("dim", DIMS)
@SETTINGS
@given(data=st.data())
def test_quantizer_codes_match_oracle(dim, data):
    dataset, queries, config = data.draw(knn_cases(dim))
    raw = data.draw(
        arrays(
            np.float64,
            (data.draw(st.integers(1, 5)), dataset.num_classes),
            elements=st.floats(0.05, 1.0),
        )
    )
    subset_dists = with_repeats(data.draw, raw)
    subset_dists /= subset_dists.sum(axis=1, keepdims=True)
    model = QuantizerModel(
        subset_dists=subset_dists,
        config=QuantizerConfig(M=subset_dists.shape[0], knn=config),
        training_set=dataset,
        final_objective=0.0,
        iterations_run=1,
        converged=True,
    )
    with blocks_of(data.draw(block_cells)), leaves_of(data.draw(search_sizes), data.draw(search_sizes)):
        got = model.codes(queries)
    point_dists = [oracle_distribution(dataset, q, config.k).tolist() for q in queries]
    assert got.dtype == np.int64
    assert got.tolist() == oracle_assign(point_dists, subset_dists.tolist())


@pytest.mark.parametrize("dim", DIMS)
@SETTINGS
@given(data=st.data())
def test_kmeans_codes_match_oracle(dim, data):
    base = data.draw(arrays(np.float64, (data.draw(st.integers(1, 8)), dim), elements=coordinates))
    centroids = with_repeats(data.draw, base)
    queries = data.draw(arrays(np.float64, (data.draw(st.integers(1, 24)), dim), elements=coordinates))
    model = KmeansModel(centroids=centroids, inertia_trace=(0.0,))
    with blocks_of(data.draw(block_cells)):
        got = model.codes(np.vstack([queries, centroids]))
    assert got.dtype == np.int64
    assert got.tolist() == [
        oracle_nearest(centroids.tolist(), q.tolist()) for q in np.vstack([queries, centroids])
    ]


@st.composite
def distributions(draw, rows, num_classes, positive=False):
    """rows x num_classes distributions; with positive false, some entries are 0."""
    low = st.floats(0.01, 1.0)
    elements = low if positive else st.one_of(st.just(0.0), low)
    weights = draw(arrays(np.float64, (rows, num_classes), elements=elements))
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    return weights / weights.sum(axis=1, keepdims=True)


epsilons = st.sampled_from([0.0, 1e-9, 1e-6, 0.3])


@pytest.mark.parametrize("num_classes", range(1, 21))
@settings(SETTINGS, max_examples=10)
@given(data=st.data())
def test_kl_matrix_entries_equal_own_subset_terms(num_classes, data):
    n, M = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 12))
    P = data.draw(distributions(n, num_classes))
    Q = data.draw(distributions(M, num_classes, positive=True))
    assignment = data.draw(arrays(np.int64, n, elements=st.integers(0, M - 1)))
    np.testing.assert_array_equal(
        kl_matrix(P, Q)[np.arange(n), assignment], _kl_terms(P, Q[assignment]).sum(axis=1)
    )


@pytest.mark.parametrize("num_classes", range(1, 21))
@settings(SETTINGS, max_examples=10)
@given(data=st.data())
def test_kl_matrix_rows_do_not_depend_on_the_other_rows(num_classes, data):
    """fit and codes take the KL of each distinct distribution once and look
    it up for every row that shares it: the lookup equals the KL matrix of
    all rows."""
    values = data.draw(distributions(data.draw(st.integers(1, 8)), num_classes))
    rows = data.draw(arrays(np.int64, data.draw(st.integers(1, 40)), elements=st.integers(0, values.shape[0] - 1)))
    P = values[rows]
    Q = data.draw(distributions(data.draw(st.integers(1, 12)), num_classes, positive=True))
    distinct, inverse = quantizer._distinct_rows(P)
    np.testing.assert_array_equal(distinct[inverse], P)
    np.testing.assert_array_equal(kl_matrix(distinct, Q)[inverse], kl_matrix(P, Q))


@st.composite
def kl_matrix_cases(draw, num_classes, reference_zeros=True):
    """Point rows that are kNN distributions (counts / k, many shared values
    and zeros) or continuous rows (mostly distinct values, some zeros), and
    M subset rows of which, with reference_zeros, a few cells may be zero."""
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        k = draw(st.integers(1, 12))
        neighbor_labels = draw(arrays(np.int64, (n, k), elements=st.integers(0, num_classes - 1)))
        counts = (neighbor_labels[:, :, None] == np.arange(num_classes)).sum(axis=1)
        P = counts / float(k)
    else:
        P = draw(distributions(n, num_classes))
    Q = draw(distributions(draw(st.integers(1, 70)), num_classes, positive=True))
    cells = st.tuples(st.integers(0, Q.shape[0] - 1), st.integers(0, num_classes - 1))
    for m, c in draw(st.lists(cells, max_size=3 if reference_zeros else 0)):
        Q[m, c] = 0.0
    Q[Q.sum(axis=1) == 0.0, 0] = 1.0
    return P, Q / Q.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("num_classes", range(1, 21))
@settings(SETTINGS, max_examples=15)
@given(data=st.data())
def test_kl_matrix_equals_the_broadcast_sum_bit_for_bit(num_classes, data):
    P, Q = data.draw(kl_matrix_cases(num_classes))
    try:
        want = _kl_terms(P[:, None, :], Q[None, :, :]).sum(axis=2)
    except DomainError:
        with pytest.raises(DomainError, match="unsmoothed zero in reference distribution"):
            kl_matrix(P, Q)
        return
    got = kl_matrix(P, Q)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("num_classes", [1, 3, 16, 20])
@settings(SETTINGS, max_examples=15)
@given(data=st.data())
def test_kl_matrix_evaluates_one_term_per_distinct_pair_and_subset(num_classes, data):
    P, Q = data.draw(kl_matrix_cases(num_classes, reference_zeros=False))
    pairs = {(float(value), c) for row in P for c, value in enumerate(row)}
    asked = []

    def counting_terms(p, q):
        asked.append(np.broadcast(p, q).size)
        return _kl_terms(p, q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(divergence, "_kl_terms", counting_terms)
        kl_matrix(P, Q)
    assert 0 < sum(asked) <= Q.shape[0] * len(pairs)


@pytest.mark.parametrize("num_classes", [1, 2, 3, 5, 8, 16, 20])
@settings(SETTINGS, max_examples=25)
@given(data=st.data())
def test_point_table_columns_equal_kl_matrix_columns_bit_for_bit(num_classes, data):
    """fit builds one PointTable per fit and recomputes only the columns of
    the subsets whose distributions changed: the step on any 1..M subset rows,
    in any order, equals those columns of kl_matrix bit for bit, and raises
    kl_matrix's DomainError exactly when one of the rows has an unsmoothed
    zero where some point is positive."""
    P, Q = data.draw(kl_matrix_cases(num_classes))
    table = PointTable.of(P)
    rows = data.draw(st.lists(st.integers(0, Q.shape[0] - 1), min_size=1, max_size=Q.shape[0], unique=True))
    usable = [m for m in range(Q.shape[0]) if not np.any((P > 0.0) & (Q[m] == 0.0))]
    if not set(rows) <= set(usable):
        with pytest.raises(DomainError, match="unsmoothed zero in reference distribution"):
            table.kl(Q[rows])
        rows = [m for m in rows if m in usable]
    want = kl_matrix(P, Q[usable])[:, [usable.index(m) for m in rows]]
    got = table.kl(Q[rows])
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def repair_cases(draw):
    """An assignment with many empty subsets and costs drawn from a few values,
    so ties are common. Some cases have fewer points than subsets; in others
    a subset runs out of points to spare while its worst fits are still
    ahead in the walk."""
    M = draw(st.integers(1, 24))
    n = draw(st.integers(max(1, M - 2), 2 * M + 4))
    occupied = draw(st.lists(st.integers(0, M - 1), min_size=1, max_size=M, unique=True))
    assignment = np.array(occupied)[draw(arrays(np.int64, n, elements=st.integers(0, len(occupied) - 1)))]
    levels = draw(st.lists(st.floats(0.0, 5.0, allow_subnormal=False), min_size=1, max_size=4))
    cost = np.array(levels)[draw(arrays(np.int64, n, elements=st.integers(0, len(levels) - 1)))]
    return assignment, M, cost


@settings(SETTINGS, max_examples=300)
@given(case=repair_cases())
def test_repair_equals_per_empty_subset_oracle(case):
    assignment, M, cost = case
    before = assignment.copy()
    try:
        want = oracle_repair(assignment, M, cost)
    except LookupError:
        with pytest.raises(DomainError, match="fewer points than subsets"):
            repair_empty(assignment, M, lambda own: cost)
    else:
        np.testing.assert_array_equal(repair_empty(assignment, M, lambda own: cost), want)
    np.testing.assert_array_equal(assignment, before)


def per_subset_distributions(assignment, M, labels, num_classes, mode, point_dists, smoothing):
    """Each subset on its own: its members' label counts (paper) or mean
    distribution (centroid), then smooth."""
    out = np.empty((M, num_classes))
    for m in range(M):
        members = assignment == m
        if mode == "paper":
            weights = np.bincount(labels[members], minlength=num_classes).astype(np.float64)
        else:
            member_dists = point_dists[members]
            weights = member_dists.mean(axis=0) if member_dists.shape[0] else np.zeros(num_classes)
        out[m] = smooth(weights, smoothing)
    return out


@pytest.mark.parametrize("mode", ["paper", "centroid"])
@SETTINGS
@given(data=st.data(), num_classes=st.integers(1, 17), epsilon=epsilons)
def test_subset_distributions_equal_per_subset_formula(mode, data, num_classes, epsilon):
    n = data.draw(st.integers(1, 200))
    M = data.draw(st.integers(1, min(n, 16) if epsilon == 0.0 else 16))
    assignment = data.draw(arrays(np.int64, n, elements=st.integers(0, M - 1)))
    if epsilon == 0.0:
        assignment[:M] = np.arange(M)  # unsmoothed subsets must not be empty
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, num_classes - 1)))
    point_dists = data.draw(distributions(n, num_classes))
    smoothing = SmoothingConfig(epsilon)
    got = update_subset_distributions(
        Partition(assignment, M), labels, num_classes, mode, point_dists, smoothing
    )
    want = per_subset_distributions(assignment, M, labels, num_classes, mode, point_dists, smoothing)
    np.testing.assert_array_equal(got, want)


@SETTINGS
@given(data=st.data(), num_classes=st.integers(1, 20), epsilon=epsilons)
def test_smooth_matrix_equals_smooth_of_each_row(data, num_classes, epsilon):
    rows = data.draw(st.integers(1, 12))
    counts = data.draw(
        arrays(
            np.float64,
            (rows, num_classes),
            elements=st.one_of(st.integers(0, 60).map(float), st.floats(0.0, 1.0)),
        )
    )
    if epsilon == 0.0:
        counts[counts.sum(axis=1) == 0, 0] = 1.0
    smoothing = SmoothingConfig(epsilon)
    np.testing.assert_array_equal(
        smooth(counts, smoothing), np.array([smooth(row, smoothing) for row in counts])
    )
