"""Independent brute-force oracles used to check the library's fast paths.

Everything here is deliberately written with plain Python loops, math.log
and the most direct numpy calls, so it shares no code with the
implementation under test.
"""

import csv
import dataclasses
import io
import json
import math

import numpy as np

from klvq import DatasetFormatError


def oracle_knn(features, query, k, exclude_index=None):
    """Full sort of squared distances; ties broken by lower row index."""
    scored = []
    for idx, row in enumerate(features):
        if exclude_index is not None and idx == exclude_index:
            continue
        dist = 0.0
        for a, b in zip(row, query):
            dist += (a - b) ** 2
        scored.append((dist, idx))
    scored.sort()
    return [idx for _, idx in scored[:k]]


def oracle_in_order_knn(features, queries, k, leave_out=None):
    """(n, k) row indices of each query's k nearest rows, ordered by
    (distance, index), from the full (n, N) array of squared distances
    summed one coordinate at a time in index order with numpy's subtract,
    multiply and add, so that sums that overflow give inf as the library's do
    (Python float arithmetic would raise). leave_out[i], when given, is
    removed from query i's candidates."""
    dists = np.zeros((queries.shape[0], features.shape[0]))
    for j in range(features.shape[1]):
        term = np.subtract(features[:, j], queries[:, j : j + 1])
        dists = np.add(dists, np.multiply(term, term))
    rows = []
    for i, row in enumerate(dists):
        candidates = [idx for idx in range(row.shape[0]) if leave_out is None or idx != leave_out[i]]
        candidates.sort(key=lambda idx: (row[idx], idx))
        rows.append(candidates[:k])
    return np.array(rows, dtype=np.int64)


def oracle_kl(p, q):
    """Term-by-term KL divergence with the 0*log(0/.) = 0 convention."""
    total = 0.0
    for pc, qc in zip(p, q):
        if pc > 0.0:
            total += pc * math.log(pc / qc)
    return total


def oracle_assign(point_dists, subset_dists):
    """Row-wise argmin of every KL pair, lowest subset index on ties."""
    assignment = []
    for p in point_dists:
        kls = [oracle_kl(p, q) for q in subset_dists]
        assignment.append(min(range(len(subset_dists)), key=lambda m: (kls[m], m)))
    return assignment


def oracle_objective(point_dists, assignment, subset_dists):
    """Triple loop over (class, subset, member) of the summed KL objective."""
    num_classes = len(subset_dists[0])
    total = 0.0
    for y in range(num_classes):
        for m in range(len(subset_dists)):
            for i, a in enumerate(assignment):
                if a == m and point_dists[i][y] > 0.0:
                    total += point_dists[i][y] * math.log(point_dists[i][y] / subset_dists[m][y])
    return total


def oracle_repair(assignment, M, cost):
    """Fill each subset that starts empty, in ascending order, with the point
    of largest cost (lowest index on ties) among the members of subsets that
    still hold two or more points; donors are recomputed after every move.
    cost[i] is point i's cost in its starting subset. Raises LookupError when
    no donor is left."""
    assignment = np.array(assignment, dtype=np.int64)
    cost = np.asarray(cost, dtype=np.float64)
    for target in [m for m in range(M) if m not in assignment]:
        sizes = np.bincount(assignment, minlength=M)
        donors = np.flatnonzero(sizes[assignment] >= 2)
        if donors.size == 0:
            raise LookupError("no subset has a point to spare")
        assignment[donors[np.lexsort((donors, -cost[donors]))[0]]] = target
    return assignment


def oracle_nearest(centroids, query):
    """Exhaustive scan for the nearest centroid, lowest index on ties."""
    best = None
    for idx, row in enumerate(centroids):
        dist = 0.0
        for a, b in zip(row, query):
            dist += (a - b) ** 2
        if best is None or dist < best[0]:
            best = (dist, idx)
    return best[1]


def oracle_broadcast_nearest(features, centroids):
    """Nearest centroid of every row from the full (n, K, d) array of squared
    differences, summed along d, lowest index on ties: the direct numpy form
    whose bits the k-means assignment must reproduce."""
    return np.argmin(((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1)


def oracle_evaluate(train_bags, test_bags, codes_fn, M, distance):
    """Confusion matrix of the per-bag bag-of-features path: each bag's codes
    counted on their own and divided by their total, and each test bag, one
    at a time, given the label of the training histogram at the least L1 or
    L2 distance, lowest training index on ties. Distances are summed along
    the contiguous bin axis of an (N, M) difference matrix."""

    def normalized(bag):
        counts = np.bincount(codes_fn(bag.descriptors), minlength=M)
        return counts / counts.sum()

    train = np.stack([normalized(bag) for bag in train_bags])
    num_classes = max(bag.label for bag in (*train_bags, *test_bags)) + 1
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    for bag in test_bags:
        diff = train - normalized(bag)
        dists = np.abs(diff).sum(axis=1) if distance == "l1" else np.sqrt((diff**2).sum(axis=1))
        confusion[bag.label, train_bags[int(np.argmin(dists))].label] += 1
    return confusion


def oracle_read_table(path, label, rows_name="data"):
    """The feature-table reader as one csv.reader pass and a float() call per
    cell: the (N, d) matrix and the N label cells, or DatasetFormatError
    naming the first bad line in file order, with the library's messages."""
    if not path.exists():
        raise DatasetFormatError(f"file not found: {path}")
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise DatasetFormatError(f"{path}: empty file")
    header = rows[0]
    if label is None:
        label = bool(header) and header[-1] == "label"
    columns = header[:-1] if label else header
    if label and (len(header) < 2 or header[-1] != "label"):
        raise DatasetFormatError(f'{path}: line 1: header must end with a "label" column')
    if not columns or columns != [f"f{i}" for i in range(1, len(columns) + 1)]:
        raise DatasetFormatError(f'{path}: line 1: header must be "f1,...,fd{",label" if label else ""}"')
    if len(rows) < 2:
        raise DatasetFormatError(f"{path}: no {rows_name} rows")
    features = np.empty((len(rows) - 1, len(columns)), dtype=np.float64)
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DatasetFormatError(f"{path}: line {lineno} has {len(row)} cells, expected {len(header)}")
        for column, cell in enumerate(row[: len(columns)], start=1):
            try:
                value = float(cell)
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: line {lineno}, column {column}: {cell!r} is not a real number"
                ) from None
            if not math.isfinite(value):
                raise DatasetFormatError(f"{path}: line {lineno}, column {column}: non-finite value {cell!r}")
            features[lineno - 2, column - 1] = value
    return features, [row[-1] for row in rows[1:]] if label else []


def oracle_write_csv(path, header, rows):
    """A CSV as csv.writer writes it: the header row, then each row, with
    csv's default dialect (a float cell as its repr, minimal quoting, \\r\\n
    line ends). The library's writers must match it byte for byte."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def oracle_model_payload(model):
    """The document save_model writes, with every array as its tolist()."""
    if model.kind == "klvq":
        fields = {
            "config": dataclasses.asdict(model.config),
            "class_names": list(model.training_set.class_names),
            "subset_dists": model.subset_dists.tolist(),
            "training_features": model.training_set.features.tolist(),
            "training_labels": model.training_set.labels.tolist(),
            "final_objective": model.final_objective,
            "iterations_run": model.iterations_run,
            "converged": model.converged,
        }
    else:
        fields = {
            "config": {"K": model.K},
            "K": model.K,
            "centroids": model.centroids.tolist(),
            "inertia": model.inertia,
            "iterations_run": model.iterations_run,
            "inertia_trace": list(model.inertia_trace),
        }
    return {"format_version": 1, "kind": model.kind, **fields}


def oracle_model_json(model):
    """A model file as the standard library writes it: the payload passed to
    json.dump(..., indent=2), then a newline. save_model must write the same
    bytes."""
    buffer = io.StringIO()
    json.dump(oracle_model_payload(model), buffer, indent=2)
    return buffer.getvalue() + "\n"
