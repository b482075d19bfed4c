"""Correctness checks of the benchmark's CLI outputs, written apart from klvq.

Nothing here imports klvq. The oracles are the benchmark's own numpy code:
brute-force kNN label distributions, KL argmin, nearest-centroid argmin,
integer bag-of-features histograms and 1-NN.

Only a real fault may fail a check. Where a documented tie rule meets an
exact tie, the program's floating-point arithmetic may break the tie another
way, so a code, neighbour set or prediction is accepted if it is optimal
within a rounding-level band (``DIST_REL`` for squared distances,
``VALUE_REL`` for KL values, inertia and objectives); outside such bands the
answer must be exactly the oracle's.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from pathlib import Path

import numpy as np

DIST_REL = 1e-9
VALUE_REL = 1e-12
# Near-tie groups at the k-th neighbour larger than this are not enumerated;
# such a row accepts any code (continuous inputs never produce one).
MAX_TIE_GROUP = 12


# ---------------------------------------------------------------- parsing


def read_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in Path(path).read_text().splitlines()]


def read_features(path: Path) -> tuple[np.ndarray, list[str] | None]:
    rows = read_rows(path)
    has_label = rows[0][-1] == "label"
    width = len(rows[0]) - has_label
    features = np.array([[float(v) for v in row[:width]] for row in rows[1:]], dtype=np.float64)
    labels = [row[-1] for row in rows[1:]] if has_label else None
    return features.reshape(len(rows) - 1, width), labels


def _value(line: str, key: str) -> str:
    prefix = f"{key}: "
    if not line.startswith(prefix):
        raise ValueError(f"expected {prefix!r}, got {line!r}")
    return line[len(prefix):]


def parse_trace(out: str, value_key: str, column: str) -> tuple[int, list[str], float, list[float]]:
    """fit / kmeans-fit output: iteration count, the lines before the trace,
    the final value and the trace."""
    lines = out.splitlines()
    iterations = int(_value(lines[0], "iterations"))
    header = lines.index(f"iteration,{column}")
    final = float(_value(lines[header - 1], value_key))
    trace = []
    for step, line in enumerate(lines[header + 1:], start=1):
        index, value = line.split(",")
        if int(index) != step:
            raise ValueError(f"trace line {line!r} out of order")
        trace.append(float(value))
    return iterations, lines[:header], final, trace


def parse_eval(out: str) -> tuple[str, float, list[str], list[float], np.ndarray]:
    lines = out.splitlines()
    tag = _value(lines[0], "quantizer")
    overall = float(_value(lines[1], "overall_accuracy"))
    start = lines.index("confusion matrix CSV (rows = true class, columns = predicted):")
    per_class = [float(line.split()[-1]) for line in lines[3:start]]
    names = lines[start + 1].split(",")[1:]
    confusion = np.array([[int(v) for v in line.split(",")[1:]] for line in lines[start + 2:]],
                         dtype=np.int64)
    return tag, overall, names, per_class, confusion


# ---------------------------------------------------------------- oracles


def knn_label_dists(X: np.ndarray, y: np.ndarray, C: int, Q: np.ndarray, k: int):
    """kNN label distribution of every query row (training rows may be their
    own neighbours), ties at the k-th distance to the lowest row index.

    Returns (P, alternatives): alternatives maps a row with a near tie at the
    k-th distance to every distribution some tie order could give it.
    """
    N, d = X.shape
    onehot = np.zeros((N, C))
    onehot[np.arange(N), y] = 1.0
    P = np.empty((Q.shape[0], C))
    alternatives: dict[int, list[np.ndarray] | None] = {}
    block = max(1, 2_000_000 // (N * d))
    for start in range(0, Q.shape[0], block):
        D = ((X[None, :, :] - Q[start:start + block, None, :]) ** 2).sum(axis=2)
        kth = np.partition(D, k - 1, axis=1)[:, k - 1]
        band = DIST_REL * kth
        inner = D < (kth - band)[:, None]
        edge = np.abs(D - kth[:, None]) <= band[:, None]
        P[start:start + D.shape[0]] = ((inner | edge) @ onehot) / float(k)
        wanted = k - inner.sum(axis=1)
        for r in np.flatnonzero(edge.sum(axis=1) != wanted):
            base = np.bincount(y[inner[r]], minlength=C).astype(np.float64)
            group = np.flatnonzero(edge[r])
            group = group[np.lexsort((group, D[r, group]))]
            exact = base + np.bincount(y[group[: wanted[r]]], minlength=C)
            P[start + r] = exact / float(k)
            if group.shape[0] > MAX_TIE_GROUP:
                alternatives[start + r] = None
                continue
            options = {tuple(base + np.bincount(y[list(pick)], minlength=C))
                       for pick in combinations(group, int(wanted[r]))}
            alternatives[start + r] = [np.array(o) / float(k) for o in sorted(options)]
    return P, alternatives


def kl_table(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(n, M) table of KL(P[i] || Q[m]), natural log, 0 ln 0 = 0."""
    out = np.empty((P.shape[0], Q.shape[0]))
    block = max(1, 2_000_000 // Q.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, P.shape[0], block):
            p = P[start:start + block, None, :]
            terms = np.where(p > 0.0, p * np.log(p / Q[None, :, :]), 0.0)
            out[start:start + p.shape[0]] = terms.sum(axis=2)
    return out


def _near_min(table: np.ndarray) -> np.ndarray:
    low = table.min(axis=1, keepdims=True)
    return table <= low + VALUE_REL * np.maximum(1.0, np.abs(low))


def kl_codes(P: np.ndarray, alternatives: dict, Q: np.ndarray):
    """Expected KL argmin codes (lowest subset on ties) and, per row where
    more than one code is acceptable, the set of acceptable codes."""
    table = kl_table(P, Q)
    codes = np.argmin(table, axis=1)
    near = _near_min(table)
    accepted = {int(i): set(np.flatnonzero(near[i]).tolist())
                for i in np.flatnonzero(near.sum(axis=1) > 1)}
    for row, options in alternatives.items():
        if options is None:
            accepted[row] = set(range(Q.shape[0]))
            continue
        alt_near = _near_min(kl_table(np.array(options), Q))
        accepted[row] = set(np.flatnonzero(alt_near.any(axis=0)).tolist()) | {int(codes[row])}
    return codes, accepted


def nearest_codes(X: np.ndarray, centroids: np.ndarray):
    """Expected nearest-centroid codes (lowest index on ties) and acceptable sets."""
    sq = np.empty((X.shape[0], centroids.shape[0]))
    block = max(1, 2_000_000 // centroids.size)
    for start in range(0, X.shape[0], block):
        sq[start:start + block] = ((centroids[None, :, :] - X[start:start + block, None, :]) ** 2).sum(axis=2)
    codes = np.argmin(sq, axis=1)
    low = sq.min(axis=1, keepdims=True)
    near = sq <= low + DIST_REL * low
    accepted = {int(i): set(np.flatnonzero(near[i]).tolist()) for i in np.flatnonzero(near.sum(axis=1) > 1)}
    return codes, accepted, sq.min(axis=1)


def compare_codes(what: str, got: list[int], codes: np.ndarray, accepted: dict) -> list[str]:
    if len(got) != codes.shape[0]:
        return [f"{what}: {len(got)} codes for {codes.shape[0]} rows"]
    wrong = [i for i, code in enumerate(got) if code != codes[i] and code not in accepted.get(i, ())]
    if wrong:
        i = wrong[0]
        return [f"{what}: {len(wrong)} of {len(got)} codes differ from the oracle "
                f"(row {i}: got {got[i]}, expected {int(codes[i])})"]
    return []


def _assignable(options: list[set[int]], capacity: np.ndarray) -> bool:
    """Whether every bag can take one of its labels without exceeding capacity
    (augmenting paths over labels with capacities)."""
    capacity = capacity.copy()
    holders: dict[int, list[int]] = {c: [] for c in range(capacity.shape[0])}

    def place(bag: int, seen: set[int]) -> bool:
        for c in sorted(options[bag]):
            if c in seen:
                continue
            seen.add(c)
            if capacity[c] > 0:
                capacity[c] -= 1
                holders[c].append(bag)
                return True
            for other in list(holders[c]):
                if place(other, seen):
                    holders[c].remove(other)
                    holders[c].append(bag)
                    return True
        return False

    return all(place(bag, set()) for bag in range(len(options)))


def expected_bof(train_codes, test_codes, train_slack, test_slack, train_labels, M):
    """Per test bag, the set of labels its 1-NN (L1, lowest training index on
    ties) may predict. codes: list of per-bag code arrays; slack: per bag, the
    number of descriptors whose code is not uniquely determined. All bags of
    a workload have the same size, so integer count distances order the
    normalized histograms exactly."""
    train = np.array([np.bincount(c, minlength=M) for c in train_codes], dtype=np.int64)
    test = np.array([np.bincount(c, minlength=M) for c in test_codes], dtype=np.int64)
    train_slack = 2 * np.asarray(train_slack)
    labels = np.asarray(train_labels)
    out = []
    for i in range(test.shape[0]):
        dist = np.abs(train - test[i]).sum(axis=1)
        slack = train_slack + 2 * test_slack[i]
        out.append(set(labels[dist - slack <= (dist + slack).min()].tolist()))
    return out


def check_confusion(what, confusion, names, per_class, overall, test_labels, predicted, class_names):
    failures = []
    C = len(class_names)
    if names != list(class_names):
        failures.append(f"{what}: class columns {names} != {list(class_names)}")
    if confusion.shape != (C, C):
        return failures + [f"{what}: confusion shape {confusion.shape}, expected {(C, C)}"]
    if confusion.sum() != len(test_labels):
        failures.append(f"{what}: confusion sums to {confusion.sum()}, not {len(test_labels)} test items")
    row_totals = confusion.sum(axis=1)
    expected_per_class = [float(confusion[c, c] / row_totals[c]) if row_totals[c] else 0.0 for c in range(C)]
    if per_class != expected_per_class:
        failures.append(f"{what}: per-class accuracies {per_class} disagree with the confusion matrix")
    if overall != float(np.trace(confusion) / confusion.sum()):
        failures.append(f"{what}: overall_accuracy {overall} disagrees with the confusion matrix")
    for c in range(C):
        options = [predicted[i] for i, label in enumerate(test_labels) if label == c]
        if row_totals[c] != len(options) or not _assignable(options, confusion[c]):
            failures.append(f"{what}: confusion row {class_names[c]} {confusion[c].tolist()} "
                            "is not what independent histograms and 1-NN give")
    return failures


# ---------------------------------------------------------------- per command


def check_fit(out: str, model: dict, X, y, class_names, M: int, k: int, knn_cache: dict) -> list[str]:
    """fit output and model JSON: consistency, distributions, objective bound."""
    failures = []
    iterations, head, final, trace = parse_trace(out, "final_objective", "objective")
    converged = head[1]
    if model.get("kind") != "klvq" or model["config"]["M"] != M or model["config"]["knn"]["k"] != k:
        failures.append("fit: model JSON kind or config does not match the flags")
    if len(trace) != iterations or model["iterations_run"] != iterations:
        failures.append(f"fit: {len(trace)} trace lines, model says {model['iterations_run']}, "
                        f"output says {iterations} iterations")
    if converged != f"converged: {str(model['converged']).lower()}":
        failures.append(f"fit: {converged!r} disagrees with the model JSON")
    if not trace or final != trace[-1] or final != model["final_objective"]:
        failures.append(f"fit: final_objective {final} != last trace value / model JSON value")
    if not np.all(np.isfinite(trace)) or min(trace, default=0.0) < -1e-9:
        failures.append("fit: objective trace has a negative or non-finite value")
    if model["class_names"] != list(class_names):
        failures.append(f"fit: class names {model['class_names']} != {list(class_names)}")
    if not (np.array_equal(np.asarray(model["training_features"]), X)
            and np.array_equal(np.asarray(model["training_labels"]), y)):
        failures.append("fit: model JSON training set differs from the input CSV")
    Q = np.asarray(model["subset_dists"], dtype=np.float64)
    if Q.shape != (M, len(class_names)) or not np.all(np.isfinite(Q)) or not np.all(Q > 0):
        return failures + ["fit: subset_dists are not M positive finite rows over the classes"]
    if np.any(np.abs(Q.sum(axis=1) - 1.0) > 1e-9):
        failures.append("fit: a subset distribution does not sum to 1")
    P, alternatives = _label_dists(knn_cache, X, y, len(class_names), k, X)
    best = kl_table(P, Q).min(axis=1)
    for row, options in alternatives.items():
        best[row] = 0.0 if options is None else min(best[row], kl_table(np.array(options), Q).min())
    bound = float(best.sum())
    if bound > final + VALUE_REL * max(1.0, abs(final)):
        failures.append(f"fit: sum_i min_m KL(p_i||q_m) = {bound!r} exceeds final_objective {final!r}")
    return failures


def check_kmeans_fit(out: str, model: dict, X: np.ndarray, K: int) -> list[str]:
    failures = []
    iterations, _, inertia, trace = parse_trace(out, "inertia", "inertia")
    if inertia != model.get("inertia"):
        failures.append("kmeans-fit: printed inertia differs from the model JSON")
    if model.get("kind") != "kmeans" or model["K"] != K:
        failures.append("kmeans-fit: model JSON kind or K does not match the flags")
    if len(trace) != iterations or model["iterations_run"] != iterations or trace != model["inertia_trace"]:
        failures.append("kmeans-fit: inertia trace differs from the iteration count or the model JSON")
    if not trace or trace[-1] != inertia:
        failures.append("kmeans-fit: inertia is not the last trace value")
    for before, after in zip(trace, trace[1:]):
        if after > before + VALUE_REL * abs(before):
            failures.append(f"kmeans-fit: inertia rose from {before!r} to {after!r}")
            break
    centroids = np.asarray(model["centroids"], dtype=np.float64)
    if centroids.shape != (K, X.shape[1]) or not np.all(np.isfinite(centroids)):
        return failures + ["kmeans-fit: centroids are not K finite rows of the input dimension"]
    _, _, nearest = nearest_codes(X, centroids)
    if nearest.sum() > inertia + VALUE_REL * abs(inertia):
        failures.append(f"kmeans-fit: sum of nearest squared distances {nearest.sum()!r} > inertia {inertia!r}")
    return failures


def _label_dists(cache: dict, X, y, C: int, k: int, queries: np.ndarray):
    """knn_label_dists, computed once per training set, k and query rows."""
    key = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in (X, y, queries))).hexdigest()
    if (key, k) not in cache:
        cache[key, k] = knn_label_dists(X, y, C, queries, k)
    return cache[key, k]


def codes_for(model: dict, queries: np.ndarray, knn_cache: dict):
    """Expected codes and acceptable sets of a model for query rows."""
    if model["kind"] == "kmeans":
        codes, accepted, _ = nearest_codes(queries, np.asarray(model["centroids"], dtype=np.float64))
        return codes, accepted
    X = np.asarray(model["training_features"], dtype=np.float64)
    y = np.asarray(model["training_labels"], dtype=np.int64)
    P, alternatives = _label_dists(knn_cache, X, y, len(model["class_names"]), model["config"]["knn"]["k"], queries)
    return kl_codes(P, alternatives, np.asarray(model["subset_dists"], dtype=np.float64))


def check_quantize(out: str, model: dict, queries: np.ndarray, knn_cache: dict) -> list[str]:
    got = [int(line) for line in out.splitlines()]
    codes, accepted = codes_for(model, queries, knn_cache)
    return compare_codes(f"quantize ({model['kind']})", got, codes, accepted)


def check_eval_bof(out: str, model: dict, train_bags, test_bags, class_names, knn_cache: dict) -> list[str]:
    kind = model["kind"]
    tag, overall, names, per_class, confusion = parse_eval(out)
    failures = [] if tag == kind else [f"eval-bof: quantizer tag {tag!r}, expected {kind!r}"]
    M = model["config"]["M"] if kind == "klvq" else model["K"]
    codes = {}
    for split, bags in (("train", train_bags), ("test", test_bags)):
        pooled = np.concatenate([bag.descriptors for bag in bags])
        expected, accepted = codes_for(model, pooled, knn_cache)
        sizes = np.cumsum([0] + [bag.descriptors.shape[0] for bag in bags])
        per_bag = [expected[a:b] for a, b in zip(sizes, sizes[1:])]
        slack = np.bincount(np.searchsorted(sizes, sorted(accepted), side="right") - 1, minlength=len(bags))
        codes[split] = per_bag, slack
    predicted = expected_bof(codes["train"][0], codes["test"][0], codes["train"][1], codes["test"][1],
                             [bag.label for bag in train_bags], M)
    return failures + check_confusion(f"eval-bof ({kind})", confusion, names, per_class, overall,
                                      [bag.label for bag in test_bags], predicted, class_names)


# ---------------------------------------------------------------- a run


def check_synth(workload, op, out_dir: Path) -> list[str]:
    """synth output: the counts match the flags, and the pooled descriptors.csv
    read back equals the concatenated train bags with their labels."""
    classes, items, descriptors, dim = workload.synth
    failures = []
    expected_lines = [f"train items: {classes * items}", f"test items: {classes * items}",
                      f"pooled training descriptors: {classes * items * descriptors}"]
    if op.out.splitlines()[:3] != expected_lines:
        failures.append(f"synth: summary lines {op.out.splitlines()[:3]} != {expected_lines}")
    pooled = {}
    for split in ("train", "test"):
        manifest = read_rows(out_dir / split / "manifest.csv")
        if manifest[0] != ["item_id", "path", "label"] or len(manifest) - 1 != classes * items:
            failures.append(f"synth: {split} manifest has {len(manifest) - 1} items, expected {classes * items}")
            continue
        bags, labels = [], []
        for _, rel_path, label in manifest[1:]:
            features, _ = read_features(out_dir / split / rel_path)
            if features.shape != (descriptors, dim):
                failures.append(f"synth: {split}/{rel_path} is {features.shape}, expected {(descriptors, dim)}")
            bags.append(features)
            labels += [label] * features.shape[0]
        if set(labels) != {f"class_{c}" for c in range(classes)}:
            failures.append(f"synth: {split} labels {sorted(set(labels))} are not the {classes} classes")
        pooled[split] = np.concatenate(bags), labels
    features, labels = read_features(out_dir / "descriptors.csv")
    if "train" in pooled and not (np.array_equal(features, pooled["train"][0]) and labels == pooled["train"][1]):
        failures.append("synth: descriptors.csv differs from the concatenated train bags")
    return failures


def check_run(workload, inputs, rounds) -> list[str]:
    """All outputs of a run: rounds agree byte for byte, and the first round's
    outputs match the oracles."""
    failures = []
    first = rounds[0]
    seen = {}
    for index, round_ in enumerate(rounds):
        for op in round_.ops:
            a = seen.setdefault(tuple(op.argv), op)
            if (a.code, a.out) != (op.code, op.out):
                failures.append(f"round {index}: output of {op.command} differs from its first run")
                break
        if round_.model_digests != first.model_digests:
            failures.append(f"round {index}: model files differ from round 0")
    models = {}
    for kind in ("klvq", "kmeans"):
        path = inputs.model_path(kind)
        if path.exists():
            data = path.read_bytes()
            if hashlib.sha256(data).hexdigest() != first.model_digests[kind]:
                failures.append(f"{kind} model file changed after round 0")
            models[kind] = json.loads(data)
    knn_cache: dict = {}
    checked = set()
    for op in first.ops:
        if op.code != 0 or tuple(op.argv) in checked:  # repeats were compared byte for byte above
            continue
        checked.add(tuple(op.argv))
        model = models.get(op.model) if op.model else None
        try:
            if op.command == "fit":
                failures += check_fit(op.out, models["klvq"], inputs.fit_features, inputs.fit_labels,
                                      inputs.class_names, workload.subsets, workload.knn, knn_cache)
            elif op.command == "kmeans-fit":
                failures += check_kmeans_fit(op.out, models["kmeans"], inputs.train_features, workload.clusters)
            elif op.command == "quantize":
                failures += check_quantize(op.out, model, inputs.queries, knn_cache)
            elif op.command == "eval-bof":
                failures += check_eval_bof(op.out, model, inputs.train_bags, inputs.test_bags,
                                           inputs.class_names, knn_cache)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append(f"{op.command}: output or model JSON is malformed ({exc!r})")
    return failures
