"""Property tests: the batch quantization paths equal the row-by-row oracles.

Coordinates are drawn partly from a coarse grid and some rows are repeated,
so that distance ties, including ties at the kth neighbor, are common. The
block size is also drawn, so that batches cross block boundaries.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from klvq import (
    KmeansModel,
    KnnConfig,
    LabeledDataset,
    QuantizerConfig,
    QuantizerModel,
    estimate_all,
    label_distributions,
)
from klvq import kmeans, label_model, quantizer

from oracles import oracle_assign, oracle_knn, oracle_nearest

DIMS = (1, 2, 3, 7, 8, 16)
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
    config = KnnConfig(k=draw(st.integers(1, bound)), include_self=include_self)
    return dataset, np.vstack([features, extra]), config


def oracle_distribution(dataset, query, k, exclude_index=None):
    neighbors = oracle_knn(dataset.features.tolist(), query.tolist(), k, exclude_index)
    return np.bincount(dataset.labels[neighbors], minlength=dataset.num_classes) / float(k)


@pytest.mark.parametrize("dim", DIMS)
@SETTINGS
@given(data=st.data())
def test_label_distributions_match_oracle(dim, data):
    dataset, queries, config = data.draw(knn_cases(dim))
    with blocks_of(data.draw(block_cells)):
        got = label_distributions(dataset, queries, config)
        got_all = estimate_all(dataset, config)
    want = [oracle_distribution(dataset, q, config.k) for q in queries]
    np.testing.assert_array_equal(got, want)
    want_all = [
        oracle_distribution(dataset, row, config.k, None if config.include_self else i)
        for i, row in enumerate(dataset.features)
    ]
    np.testing.assert_array_equal(got_all, want_all)


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
        training_features=dataset.features,
        training_labels=dataset.labels,
        class_names=dataset.class_names,
        final_objective=0.0,
        iterations_run=1,
        converged=True,
    )
    with blocks_of(data.draw(block_cells)):
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
    model = KmeansModel(centroids=centroids, K=centroids.shape[0], inertia=0.0, iterations_run=1)
    with blocks_of(data.draw(block_cells)):
        got = model.codes(np.vstack([queries, centroids]))
    assert got.dtype == np.int64
    assert got.tolist() == [
        oracle_nearest(centroids.tolist(), q.tolist()) for q in np.vstack([queries, centroids])
    ]
