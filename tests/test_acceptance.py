"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion; each test also prints an ``ACCEPTANCE n PASS`` summary line
(visible with ``-rA`` or ``-s``).
"""

import time

import numpy as np
import pytest

from klvq import (
    KmeansModel,
    KnnConfig,
    LabeledDataset,
    Partition,
    QuantizerConfig,
    SmoothingConfig,
    assign_step,
    estimate_all,
    evaluate,
    fit,
    generate_synthetic,
    kl_divergence,
    kmeans_assign,
    kmeans_fit,
    knn_indices,
    load_model,
    objective,
    save_model,
    update_subset_distributions,
)
from klvq.cli import cli

from oracles import oracle_assign, oracle_knn, oracle_nearest, oracle_objective


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def random_distributions(rng, count, num_classes):
    raw = rng.uniform(0.01, 1.0, size=(count, num_classes))
    return raw / raw.sum(axis=1, keepdims=True)


def oracle_instance(rng):
    """One random instance of the criterion-2/3 family."""
    n = int(rng.integers(2, 201))
    dim = int(rng.integers(1, 9))
    num_subsets = int(rng.integers(1, 17))
    num_classes = int(rng.integers(2, 6))
    features = rng.normal(size=(n, dim))
    if n >= 4 and rng.random() < 0.4:
        # Verbatim duplicate rows force exact distance ties.
        features[rng.integers(0, n, size=n // 4)] = features[rng.integers(0, n, size=n // 4)]
    labels = rng.integers(0, num_classes, size=n)
    point_dists = random_distributions(rng, n, num_classes)
    subset_dists = random_distributions(rng, num_subsets, num_classes)
    if num_subsets >= 2 and rng.random() < 0.5:
        subset_dists[-1] = subset_dists[0]  # exact KL ties
    return features, labels, point_dists, subset_dists


def test_criterion_1_gibbs_inequality():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ps = random_distributions(rng, 10_000, 4)
    qs = random_distributions(rng, 10_000, 4)
    ps[::10] = qs[::10]  # exact-equality pairs exercise the zero case
    zero_pairs = 0
    for p, q in zip(ps, qs):
        value = kl_divergence(p, q)
        assert value >= -1e-12
        if np.max(np.abs(p - q)) <= 1e-9:
            zero_pairs += 1
            assert abs(value) <= 1e-12
        else:
            assert value > 1e-12
    elapsed = time.perf_counter() - start
    assert zero_pairs == 1000
    assert elapsed < 1.0
    report(1, f"10000 pairs, {zero_pairs} exact-zero, {elapsed:.2f}s < 1s")


def test_criterion_2_brute_force_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(100):
        features, labels, point_dists, subset_dists = oracle_instance(rng)
        n, dim = features.shape
        dataset = LabeledDataset(
            features, labels, tuple(f"c{i}" for i in range(point_dists.shape[1]))
        )

        for _ in range(3):
            query = features[rng.integers(0, n)] if rng.random() < 0.5 else rng.normal(size=dim)
            k = int(rng.integers(1, n + 1))
            got = knn_indices(dataset, query, KnnConfig(k=k))
            assert got.tolist() == oracle_knn(features.tolist(), query.tolist(), k)

        got_assign = assign_step(point_dists, subset_dists)
        assert got_assign.assignment.tolist() == oracle_assign(
            point_dists.tolist(), subset_dists.tolist()
        )

        centroids = rng.normal(size=(subset_dists.shape[0], dim))
        model = KmeansModel(centroids=centroids, inertia_trace=(0.0,))
        for _ in range(3):
            query = rng.normal(size=dim)
            assert kmeans_assign(model, query) == oracle_nearest(
                centroids.tolist(), query.tolist()
            )

        assignment = rng.integers(0, subset_dists.shape[0], size=n)
        got_objective = objective(point_dists, Partition(assignment, subset_dists.shape[0]), subset_dists)
        want_objective = oracle_objective(
            point_dists.tolist(), assignment.tolist(), subset_dists.tolist()
        )
        assert got_objective == pytest.approx(want_objective, rel=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"100 instances x (knn, assign, kmeans_assign, objective), {elapsed:.2f}s < 10s")


def test_criterion_3_count_update_oracle():
    rng = np.random.default_rng(78)
    for _ in range(100):
        _, labels, point_dists, subset_dists = oracle_instance(rng)
        n = labels.shape[0]
        num_subsets = min(subset_dists.shape[0], n)
        num_classes = point_dists.shape[1]
        assignment = rng.integers(0, num_subsets, size=n)
        assignment[:num_subsets] = np.arange(num_subsets)  # no empty subsets
        got = update_subset_distributions(
            Partition(assignment, num_subsets),
            labels,
            num_classes,
            "paper",
            point_dists,
            SmoothingConfig(0.0),
        )
        for m in range(num_subsets):
            members = labels[assignment == m].tolist()
            expected = [members.count(c) / len(members) for c in range(num_classes)]
            assert got[m].tolist() == expected
    report(3, "paper-mode update equals direct label counting exactly on 100 instances")


def centroid_descent_instances(count):
    """Instances with strictly positive point distributions (KL-centroid hypothesis)."""
    instances = []
    seed = 100
    while len(instances) < count:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 80))
        num_classes = int(rng.integers(2, 4))
        dataset = LabeledDataset(
            rng.normal(size=(n, 2)),
            rng.integers(0, num_classes, size=n),
            tuple(f"c{i}" for i in range(num_classes)),
        )
        knn = KnnConfig(k=min(14, n))
        if np.all(estimate_all(dataset, knn) > 0):
            instances.append((seed, dataset, knn, int(rng.integers(2, 5))))
        seed += 1
        assert seed < 500, "instance screening ran away"
    return instances


def test_criterion_4_centroid_mode_descent():
    for seed, dataset, knn, M in centroid_descent_instances(20):
        config = QuantizerConfig(
            M=M,
            knn=knn,
            smoothing=SmoothingConfig(0.0),
            max_iters=60,
            seed=seed,
            update_mode="centroid",
        )
        _, _, trace = fit(dataset, config)
        assert np.all(np.diff(trace) <= 1e-9), f"objective rose on seed {seed}"
    report(4, "20 centroid-mode traces non-increasing within 1e-9")


def test_criterion_5_converged_fits_are_fixpoints():
    converged = {"paper": 0, "centroid": 0}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 60))
        num_classes = int(rng.integers(2, 4))
        dataset = LabeledDataset(
            rng.normal(size=(n, 2)),
            rng.integers(0, num_classes, size=n),
            tuple(f"c{i}" for i in range(num_classes)),
        )
        for mode in ("paper", "centroid"):
            config = QuantizerConfig(
                M=int(rng.integers(1, 6)),
                knn=KnnConfig(k=min(8, n)),
                smoothing=SmoothingConfig(1e-6),
                max_iters=80,
                seed=seed,
                update_mode=mode,
            )
            model, partition, _ = fit(dataset, config)
            if not model.converged:
                continue
            converged[mode] += 1
            again = assign_step(estimate_all(dataset, config.knn), model.subset_dists)
            np.testing.assert_array_equal(again.assignment, partition.assignment)
    assert min(converged.values()) >= 5, f"too few converged fits to be meaningful: {converged}"
    report(5, f"fixpoints held for all converged fits ({converged})")


def test_criterion_6_zero_objective_recovery():
    mixes = [[0, 0, 0, 0, 1], [1, 1, 1, 1, 0], [0, 0, 0, 1, 1], [1, 1, 1, 0, 0]]
    for M in (2, 3, 4):
        feats, labels = [], []
        for g, group in enumerate(mixes[:M]):
            for label in group:
                feats.append([100.0 * g, 0.0])
                labels.append(label)
        dataset = LabeledDataset(np.array(feats), np.array(labels), ("a", "b"))
        config = QuantizerConfig(
            M=M,
            knn=KnnConfig(k=5),
            smoothing=SmoothingConfig(1e-6),
            seed=0,
            init="kmeans",
        )
        model, partition, trace = fit(dataset, config)
        assert trace[-1] <= 1e-6
        subset_of_group = [int(partition.assignment[g * 5]) for g in range(M)]
        for g in range(M):
            group = partition.assignment[g * 5 : (g + 1) * 5]
            assert len(set(group.tolist())) == 1, f"group {g} split across subsets (M={M})"
        assert len(set(subset_of_group)) == M, f"groups merged (M={M})"
    report(6, "objective <= 1e-6 and value-pure grouping for M in {2,3,4}")


def test_criterion_7_kmeans_correctness():
    rng = np.random.default_rng(404)
    for _ in range(10):
        points = rng.normal(size=(int(rng.integers(3, 120)), int(rng.integers(1, 5))))
        K = int(rng.integers(1, min(10, points.shape[0]) + 1))
        model, _ = kmeans_fit(points, K, seed=int(rng.integers(1000)))
        assert np.all(np.diff(model.inertia_trace) <= 1e-9)

    points = rng.normal(size=(25, 3))
    model, _ = kmeans_fit(points, 1, seed=3)
    np.testing.assert_allclose(model.centroids[0], points.mean(axis=0), atol=1e-12)
    assert model.inertia == pytest.approx(((points - points.mean(axis=0)) ** 2).sum(), abs=1e-12)

    model, _ = kmeans_fit(points, 25, seed=3)
    assert model.inertia <= 1e-12

    hand = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    model, partition = kmeans_fit(hand, 2, seed=1)
    assert sorted(model.centroids.tolist()) == [[0.0, 0.5], [10.0, 0.5]]
    assert model.inertia == 1.0
    assert partition.assignment[0] == partition.assignment[1]
    assert partition.assignment[2] == partition.assignment[3]
    report(7, "inertia monotone, K=1 and K=N closed forms, hand example exact")


def test_criterion_8_supervised_beats_baseline_at_desk_scale():
    start = time.perf_counter()
    accuracies = []
    for seed in range(42, 52):
        train_bags, test_bags, dataset = generate_synthetic(
            seed=seed,
            num_classes=3,
            items_per_class=40,
            descriptors_per_item=50,
            dim=2,
            noise=1.0,
        )
        config = QuantizerConfig(
            M=8,
            knn=KnnConfig(k=10),
            smoothing=SmoothingConfig(1e-6),
            seed=seed,
            init="random",
            update_mode="paper",
        )
        model, _, _ = fit(dataset, config)
        klvq_report = evaluate(train_bags, test_bags, "klvq", model.codes, 8)
        kmeans_model, _ = kmeans_fit(dataset.features, 8, seed=seed)
        kmeans_report = evaluate(train_bags, test_bags, "kmeans", kmeans_model.codes, 8)
        accuracies.append((klvq_report.overall_accuracy, kmeans_report.overall_accuracy))
    elapsed = time.perf_counter() - start
    klvq_mean = np.mean([a for a, _ in accuracies])
    kmeans_mean = np.mean([b for _, b in accuracies])
    strict_wins = sum(a > b for a, b in accuracies)
    assert klvq_mean >= kmeans_mean
    assert strict_wins >= 7
    assert elapsed < 60.0
    report(
        8,
        f"mean {klvq_mean:.4f} vs {kmeans_mean:.4f}, strict wins {strict_wins}/10, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_9_determinism_and_persistence(tmp_path, capsys):
    def run(*argv):
        code = cli([str(a) for a in argv])
        out = capsys.readouterr().out
        assert code == 0
        return out

    base = tmp_path / "bench"
    transcripts, model_bytes = [], []
    for _ in range(2):  # identical flags both times; outputs overwrite in place
        out = run(
            "synth", "--seed", 5, "--classes", 3, "--items-per-class", 4,
            "--descriptors", 10, "--dim", 2, "--noise", 1.0, "--out-dir", base,
        )
        out += run(
            "fit", "--input", base / "descriptors.csv", "--subsets", 4,
            "--knn", 6, "--seed", 11, "--output", tmp_path / "model.json",
        )
        out += run(
            "kmeans-fit", "--input", base / "descriptors.csv", "--clusters", 4,
            "--seed", 11, "--output", tmp_path / "km.json",
        )
        out += run(
            "eval-bof", "--train-dir", base / "train",
            "--test-dir", base / "test", "--model", tmp_path / "model.json",
        )
        out += run("quantize", "--model", tmp_path / "model.json",
                   "--input", base / "descriptors.csv")
        transcripts.append(out)
        model_bytes.append((tmp_path / "model.json").read_bytes())
    assert transcripts[0] == transcripts[1]
    assert model_bytes[0] == model_bytes[1]

    rng = np.random.default_rng(606)
    for index in range(50):
        path = tmp_path / f"round_{index}.json"
        if index % 5 == 4:
            model, _ = kmeans_fit(
                rng.normal(size=(int(rng.integers(5, 30)), 2)),
                int(rng.integers(1, 5)),
                seed=index,
            )
            save_model(model, path)
            again = load_model(path)
            np.testing.assert_array_equal(again.centroids, model.centroids)
            assert (again.K, again.inertia, again.iterations_run, again.inertia_trace) == (
                model.K, model.inertia, model.iterations_run, model.inertia_trace
            )
        else:
            n = int(rng.integers(8, 30))
            num_classes = int(rng.integers(2, 4))
            dataset = LabeledDataset(
                rng.normal(size=(n, 2)),
                rng.integers(0, num_classes, size=n),
                tuple(f"c{i}" for i in range(num_classes)),
            )
            config = QuantizerConfig(
                M=int(rng.integers(1, 5)),
                knn=KnnConfig(k=min(5, n)),
                smoothing=SmoothingConfig(1e-6),
                seed=index,
                init="random" if index % 2 else "kmeans",
                update_mode="paper" if index % 3 else "centroid",
            )
            model, _, _ = fit(dataset, config)
            save_model(model, path)
            again = load_model(path)
            assert again.config == model.config
            assert again.training_set.class_names == model.training_set.class_names
            np.testing.assert_array_equal(again.subset_dists, model.subset_dists)
            np.testing.assert_array_equal(again.training_set.features, model.training_set.features)
            np.testing.assert_array_equal(again.training_set.labels, model.training_set.labels)
            assert again.final_objective == model.final_objective
            assert (again.iterations_run, again.converged) == (
                model.iterations_run, model.converged
            )
    report(9, "byte-identical CLI transcripts and 50 exact model round-trips")
