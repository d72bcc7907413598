"""Tests for dataset generation, splitting, and batching."""

import numpy as np
import pytest

from adafamily import rng
from adafamily.data import (
    Batch,
    BatchPlan,
    Dataset,
    batches,
    class_means,
    gen_gaussian_blobs,
    split,
)


def _tiny_dataset(n=10):
    # unique single-feature rows make multiset comparisons easy
    return Dataset(
        features=np.arange(n, dtype=np.float64).reshape(n, 1),
        labels=np.arange(n, dtype=np.int64) % 2,
        num_classes=2,
    )


# -------------------------------------------------------------------------
# containers
# -------------------------------------------------------------------------


def test_batch_validates_shapes():
    with pytest.raises(ValueError):
        Batch(features=np.zeros((3, 2)), labels=np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        Batch(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        Batch(features=np.zeros(3), labels=np.zeros(3, dtype=np.int64))


def test_dataset_validates_labels():
    with pytest.raises(ValueError):
        Dataset(
            features=np.zeros((2, 1)),
            labels=np.array([0, 2], dtype=np.int64),
            num_classes=2,
        )


@pytest.mark.parametrize("labels", [[False, True], [0.0, 1.0]], ids=["bool", "float"])
def test_dataset_refuses_labels_that_are_not_integers(labels):
    # numpy reads bool labels as a mask and float labels cannot index
    labels = np.array(labels)
    with pytest.raises(ValueError, match=f"^labels must be integers, got dtype {labels.dtype}$"):
        Dataset(features=np.zeros((2, 1)), labels=labels, num_classes=2)


def test_batch_plan_validation():
    with pytest.raises(ValueError):
        BatchPlan(batch_size=0, shuffle_seed=1)
    for size in (True, 4.0, 2.5, "4"):
        with pytest.raises(ValueError, match=rf"batch_size must be an integer >= 1, got {size!r}"):
            BatchPlan(batch_size=size, shuffle_seed=1)
    for seed in (-1, 2**64, 0.5, "1", True):
        with pytest.raises(ValueError, match=r"integer in \[0, 2\*\*64\)"):
            BatchPlan(batch_size=4, shuffle_seed=seed)
    assert BatchPlan(batch_size=4, shuffle_seed=2**64 - 1).shuffle_seed == 2**64 - 1


# -------------------------------------------------------------------------
# blobs
# -------------------------------------------------------------------------


def test_class_means_geometry():
    means = class_means(3, 4)
    assert means.shape == (3, 4)
    # full (untruncated) simplex vertices are sqrt(2) apart; with
    # num_classes <= dim the truncation drops only zero coordinates
    for i in range(3):
        for j in range(i + 1, 3):
            d = np.linalg.norm(means[i] - means[j])
            assert d == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_class_means_needs_enough_dims():
    with pytest.raises(ValueError):
        class_means(4, 2)


def test_blobs_reproducible():
    a = gen_gaussian_blobs(7, 50, 2, 2, 0.5)
    b = gen_gaussian_blobs(7, 50, 2, 2, 0.5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = gen_gaussian_blobs(8, 50, 2, 2, 0.5)
    assert not np.array_equal(a.features, c.features)


def test_blobs_shape_and_balance():
    ds = gen_gaussian_blobs(7, 50, 2, 2, 0.5)
    assert ds.features.shape == (100, 2)
    assert ds.num_classes == 2
    assert np.bincount(ds.labels).tolist() == [50, 50]
    assert np.all(np.isfinite(ds.features))


def test_blobs_one_dimensional_two_modes():
    # dim=1, K=2: means are +0.5 and -0.5
    ds = gen_gaussian_blobs(3, 200, 1, 2, 0.05)
    m0 = ds.features[ds.labels == 0].mean()
    m1 = ds.features[ds.labels == 1].mean()
    assert m0 == pytest.approx(0.5, abs=0.02)
    assert m1 == pytest.approx(-0.5, abs=0.02)


def test_blobs_sample_means_near_centers():
    ds = gen_gaussian_blobs(11, 500, 4, 3, 0.1)
    means = class_means(3, 4)
    for k in range(3):
        got = ds.features[ds.labels == k].mean(axis=0)
        assert np.max(np.abs(got - means[k])) < 0.02


def test_blobs_tight_spread_is_linearly_separable():
    # near-zero spread: logistic regression reaches >= 99% accuracy
    from adafamily.optim import Algorithm, OptimizerConfig, init_state, step
    from adafamily.problems import LogisticRegression

    ds = gen_gaussian_blobs(5, 100, 2, 2, 0.02)
    problem = LogisticRegression(num_features=2, num_classes=2)
    batch = Batch(features=ds.features, labels=ds.labels)
    cfg = OptimizerConfig(algorithm=Algorithm.ADAM, alpha=1e-2)
    state = init_state(problem.dim)
    params = problem.init_params(0)
    for _ in range(300):
        _, grad = problem.loss_grad(params, batch)
        params = step(state, params, grad, cfg)
    accuracy = np.mean(problem.predict(params, ds.features) == ds.labels)
    assert accuracy >= 0.99


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_blobs_validation():
    with pytest.raises(ValueError):
        gen_gaussian_blobs(1, 0, 2, 2, 0.5)
    with pytest.raises(ValueError):
        gen_gaussian_blobs(1, 10, 2, 2, 0.0)
    with pytest.raises(ValueError):
        gen_gaussian_blobs(1, 10, 2, 1, 0.5)
    with pytest.raises(ValueError):
        gen_gaussian_blobs(1, 10, 2, 4, 0.5)  # 4 classes need dim >= 3
    for spread in (float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError, match="non-finite"):
            gen_gaussian_blobs(1, 10, 2, 2, spread)



# -------------------------------------------------------------------------
# splitting
# -------------------------------------------------------------------------


def test_split_fraction_zero_gives_empty_test():
    ds = _tiny_dataset()
    train, test = split(ds, 0.0, seed=1)
    assert test.n == 0
    assert train.n == ds.n
    assert np.array_equal(np.sort(train.features, axis=0), ds.features)


def test_split_half_is_stratified_25_25():
    ds = gen_gaussian_blobs(2, 50, 2, 2, 0.5)  # 100 points, 50 per class
    train, test = split(ds, 0.5, seed=3)
    assert np.bincount(test.labels, minlength=2).tolist() == [25, 25]
    assert np.bincount(train.labels, minlength=2).tolist() == [25, 25]


@pytest.mark.parametrize("fraction", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
def test_split_disjoint_and_exhaustive(fraction):
    ds = _tiny_dataset(20)
    train, test = split(ds, fraction, seed=9)
    assert train.n + test.n == ds.n
    all_rows = np.concatenate([train.features[:, 0], test.features[:, 0]])
    assert sorted(all_rows.tolist()) == ds.features[:, 0].tolist()


def test_split_seed_deterministic():
    ds = _tiny_dataset(40)
    a_train, a_test = split(ds, 0.3, seed=5)
    b_train, b_test = split(ds, 0.3, seed=5)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.features, b_test.features)
    c_train, c_test = split(ds, 0.3, seed=6)
    assert not np.array_equal(a_test.features, c_test.features)


def test_split_preserves_row_order_within_subsets():
    ds = _tiny_dataset(12)
    train, test = split(ds, 0.25, seed=2)
    assert np.all(np.diff(train.features[:, 0]) > 0)
    assert np.all(np.diff(test.features[:, 0]) > 0)


def test_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        split(_tiny_dataset(), -0.1, seed=0)
    with pytest.raises(ValueError):
        split(_tiny_dataset(), 1.5, seed=0)


# -------------------------------------------------------------------------
# batching
# -------------------------------------------------------------------------


def test_batches_cover_dataset_exactly():
    ds = _tiny_dataset(10)
    plan = BatchPlan(batch_size=3, shuffle_seed=42)
    got = list(batches(ds, plan, epoch_index=0))
    assert [b.n for b in got] == [3, 3, 3, 1]
    seen = np.concatenate([b.features[:, 0] for b in got])
    assert sorted(seen.tolist()) == ds.features[:, 0].tolist()


def test_batches_replay_identical():
    ds = _tiny_dataset(10)
    plan = BatchPlan(batch_size=4, shuffle_seed=7)
    a = list(batches(ds, plan, epoch_index=2))
    b = list(batches(ds, plan, epoch_index=2))
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.labels, y.labels)


def test_batches_differ_across_epochs_and_seeds():
    ds = _tiny_dataset(16)
    plan = BatchPlan(batch_size=16, shuffle_seed=7)
    e0 = next(iter(batches(ds, plan, epoch_index=0)))
    e1 = next(iter(batches(ds, plan, epoch_index=1)))
    assert not np.array_equal(e0.features, e1.features)
    other = BatchPlan(batch_size=16, shuffle_seed=8)
    o0 = next(iter(batches(ds, other, epoch_index=0)))
    assert not np.array_equal(e0.features, o0.features)


def test_batches_full_batch_is_permutation():
    ds = _tiny_dataset(8)
    plan = BatchPlan(batch_size=8, shuffle_seed=1)
    got = list(batches(ds, plan, epoch_index=0))
    assert len(got) == 1
    assert sorted(got[0].features[:, 0].tolist()) == ds.features[:, 0].tolist()
    # labels travel with their rows
    assert np.array_equal(got[0].labels, got[0].features[:, 0].astype(np.int64) % 2)


def test_batches_validation():
    ds = _tiny_dataset(4)
    with pytest.raises(ValueError):
        list(batches(ds, BatchPlan(batch_size=5, shuffle_seed=0), 0))
    with pytest.raises(ValueError):
        list(batches(ds, BatchPlan(batch_size=2, shuffle_seed=0), -1))


def test_stacked_batches_rows_equal_single_plan_batches(monkeypatch):
    ds = _tiny_dataset(10)
    plans = [BatchPlan(batch_size=3, shuffle_seed=s) for s in (5, 9, 5, 11)]
    drawn = []
    permutation = rng.permutation
    monkeypatch.setattr(rng, "permutation", lambda key, n: drawn.append(key) or permutation(key, n))
    stacked = list(batches(ds, plans, epoch_index=4))
    # each distinct shuffle seed's permutation is drawn once per epoch
    assert len(drawn) == 3
    assert [b.features.shape for b in stacked] == [(4, 3, 1)] * 3 + [(4, 1, 1)]
    for r, plan in enumerate(plans):
        alone = list(batches(ds, plan, epoch_index=4))
        for s, a in zip(stacked, alone, strict=True):
            assert s.features[r].tobytes() == a.features.tobytes()
            assert s.labels[r].tobytes() == a.labels.tobytes()


def test_stacked_batches_need_one_batch_shape():
    ds = _tiny_dataset(10)
    with pytest.raises(ValueError, match="share batch_size"):
        list(batches(ds, [BatchPlan(3, 0), BatchPlan(4, 0)], 0))
    with pytest.raises(ValueError, match="at least one"):
        list(batches(ds, [], 0))


def test_batch_accepts_a_stack_of_equal_batches():
    stack = Batch(features=np.zeros((2, 3, 4)), labels=np.zeros((2, 3), dtype=np.int64))
    assert stack.n == 3
    with pytest.raises(ValueError):
        Batch(features=np.zeros((2, 3, 4)), labels=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        Batch(features=np.zeros((2, 0, 4)), labels=np.zeros((2, 0), dtype=np.int64))
