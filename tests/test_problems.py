"""Tests for the objective functions and the finite-difference oracle."""

import hashlib
import math
import re

import numpy as np
import pytest

from adafamily import rng
from adafamily.data import Batch
from adafamily.harness import build_problem
from adafamily.problems import (
    LogisticRegression,
    MLP1,
    Quadratic,
    Rosenbrock2D,
    _over_batch,
    _over_classes,
    default_problems_for_gradcheck,
    finite_diff_grad,
    relative_error,
    spd_quadratic,
)


def _toy_batch():
    # 4 linearly separable points in 2-D, two classes
    return Batch(
        features=np.array([[1.0, 1.0], [2.0, 1.0], [-1.0, -1.0], [-2.0, -1.0]]),
        labels=np.array([0, 0, 1, 1], dtype=np.int64),
    )


# -------------------------------------------------------------------------
# quadratic
# -------------------------------------------------------------------------


def test_quadratic_identity_values():
    # f = 0.5*(3^2 + 4^2) = 12.5, grad = theta
    q = Quadratic(np.eye(2), np.zeros(2))
    loss, grad = q.loss_grad(np.array([3.0, 4.0]))
    assert loss == 12.5
    assert grad.tolist() == [3.0, 4.0]


def test_quadratic_minimum_is_floor():
    q = spd_quadratic(7, 6, 30.0)
    at_min, grad_at_min = q.loss_grad(np.linalg.solve(q.matrix, q.rhs))
    assert at_min == pytest.approx(q.min_loss, abs=1e-12)
    assert np.max(np.abs(grad_at_min)) < 1e-10
    for i in range(20):
        theta = rng.normals(rng.derive_key(77, i), q.dim)
        assert q.loss_grad(theta)[0] >= q.min_loss - 1e-12


def test_quadratic_validation():
    with pytest.raises(ValueError):
        Quadratic(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        Quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        Quadratic(np.diag([1.0, -1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        Quadratic(np.eye(2), np.zeros(3))


@pytest.mark.parametrize("dim,cond", [(0, 10.0), (4, 0.5)], ids=["dim-0", "cond-0.5"])
def test_spd_quadratic_refuses_an_empty_or_inverted_spectrum(dim, cond):
    with pytest.raises(ValueError, match="^need dim >= 1 and cond >= 1$"):
        spd_quadratic(1, dim, cond)


def test_quadratic_starts_at_origin():
    q = spd_quadratic(1, 4, 10.0)
    assert q.init_params(0).tolist() == [0.0] * 4
    assert q.init_params(99).tolist() == [0.0] * 4


def test_spd_quadratic_spectrum_and_determinism():
    q = spd_quadratic(42, 10, 100.0)
    eigs = np.linalg.eigvalsh(q.matrix)
    assert eigs[0] > 0.0
    assert eigs[-1] / eigs[0] == pytest.approx(100.0, rel=1e-9)
    q2 = spd_quadratic(42, 10, 100.0)
    assert np.array_equal(q.matrix, q2.matrix)
    assert np.array_equal(q.rhs, q2.rhs)
    q3 = spd_quadratic(43, 10, 100.0)
    assert not np.array_equal(q.matrix, q3.matrix)


# -------------------------------------------------------------------------
# rosenbrock
# -------------------------------------------------------------------------


def test_rosenbrock_global_minimum():
    r = Rosenbrock2D()
    loss, grad = r.loss_grad(np.array([1.0, 1.0]))
    assert loss == 0.0
    assert grad.tolist() == [0.0, 0.0]


def test_rosenbrock_gradient_at_origin():
    # f = (1-x)^2 + 100(y-x^2)^2; df/dx(0,0) = -2, df/dy(0,0) = 0
    r = Rosenbrock2D()
    loss, grad = r.loss_grad(np.zeros(2))
    assert loss == 1.0
    assert grad.tolist() == [-2.0, 0.0]
    fd = finite_diff_grad(r, np.zeros(2))
    assert relative_error(grad, fd) < 1e-5


def test_rosenbrock_fixed_start():
    r = Rosenbrock2D()
    for seed in (0, 1, 12345):
        assert r.init_params(seed).tolist() == [-1.2, 1.0]


def test_rosenbrock_overflow_gives_infinite_loss():
    # x * x overflows to inf without a warning, and so does the loss
    r = Rosenbrock2D()
    loss, grad = r.loss_grad(np.array([1e200, 1.0]))
    assert loss == math.inf
    losses, _ = r.loss_grad(np.array([[1e200, 1.0], [0.0, 0.0]]))
    assert losses.tolist() == [math.inf, 1.0]


def test_rosenbrock_nonnegative():
    r = Rosenbrock2D()
    pts = rng.normals(55, 100).reshape(50, 2) * 2.0
    for p in pts:
        assert r.loss_grad(p)[0] >= 0.0


# -------------------------------------------------------------------------
# classifiers
# -------------------------------------------------------------------------


def test_logreg_zero_params_gives_log_k():
    # all logits equal => softmax is uniform => loss = ln(num_classes)
    lr = LogisticRegression(num_features=2, num_classes=2)
    loss, _ = lr.loss_grad(np.zeros(lr.dim), _toy_batch())
    assert loss == pytest.approx(np.log(2.0), rel=1e-14)

    lr3 = LogisticRegression(num_features=4, num_classes=3)
    batch = Batch(
        features=rng.normals(66, 24).reshape(6, 4),
        labels=np.array([0, 1, 2, 0, 1, 2], dtype=np.int64),
    )
    loss, _ = lr3.loss_grad(np.zeros(lr3.dim), batch)
    assert loss == pytest.approx(np.log(3.0), rel=1e-14)


def test_logreg_gradient_vs_oracle_at_zero():
    lr = LogisticRegression(num_features=2, num_classes=2)
    _, grad = lr.loss_grad(np.zeros(lr.dim), _toy_batch())
    fd = finite_diff_grad(lr, np.zeros(lr.dim), _toy_batch())
    assert relative_error(grad, fd) < 1e-8


def test_cross_entropy_nonnegative():
    lr = LogisticRegression(num_features=3, num_classes=4)
    for i in range(10):
        params = rng.normals(rng.derive_key(67, i), lr.dim)
        batch = Batch(
            features=rng.normals(rng.derive_key(68, i), 15).reshape(5, 3),
            labels=(rng.random_u64(rng.derive_key(69, i), 5) % np.uint64(4)).astype(
                np.int64
            ),
        )
        assert lr.loss_grad(params, batch)[0] >= 0.0


def test_softmax_is_stable_at_huge_logits():
    lr = LogisticRegression(num_features=1, num_classes=2)
    batch = Batch(features=np.array([[1000.0]]), labels=np.array([0], dtype=np.int64))
    params = np.array([1.0, -1.0, 0.0, 0.0])  # W = [[1], [-1]], b = 0
    loss, grad = lr.loss_grad(params, batch)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_mlp_parameter_layout():
    # layout: W1 (h x p) row-major, b1 (h), W2 (k x h) row-major, b2 (k)
    m = MLP1(num_features=2, num_classes=2, hidden=3)
    assert m.dim == 3 * 2 + 3 + 2 * 3 + 2
    params = np.arange(m.dim, dtype=np.float64)
    w1, b1, w2, b2 = m._unpack(params)
    assert w1.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    assert b1.tolist() == [6.0, 7.0, 8.0]
    assert w2.tolist() == [[9.0, 10.0, 11.0], [12.0, 13.0, 14.0]]
    assert b2.tolist() == [15.0, 16.0]


def test_init_params_seeded_and_scaled():
    lr = LogisticRegression(num_features=16, num_classes=3)
    a = lr.init_params(5)
    b = lr.init_params(5)
    c = lr.init_params(6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.max(np.abs(a)) <= 1.0 / 4.0  # 1/sqrt(16)

    m = MLP1(num_features=16, num_classes=3, hidden=4)
    p = m.init_params(7)
    n1 = 4 * 16 + 4
    assert np.max(np.abs(p[:n1])) <= 1.0 / 4.0  # fan_in 16
    assert np.max(np.abs(p[n1:])) <= 1.0 / 2.0  # fan_in 4
    assert np.max(np.abs(p[n1:])) > 1.0 / 4.0  # actually uses the larger scale


@pytest.mark.parametrize("features,classes", [(0, 3), (3, 1)], ids=["no-features", "one-class"])
def test_classifier_refuses_too_few_features_or_classes(features, classes):
    with pytest.raises(ValueError, match="^need num_features >= 1 and num_classes >= 2$"):
        LogisticRegression(features, classes)


def test_mlp_refuses_an_empty_hidden_layer():
    with pytest.raises(ValueError, match="^need hidden >= 1$"):
        MLP1(8, 3, hidden=0)


# -------------------------------------------------------------------------
# eval validation
# -------------------------------------------------------------------------


def test_dimension_mismatch_rejected():
    q = Quadratic(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        q.loss_grad(np.zeros(3))


def test_batch_presence_rules():
    q = Quadratic(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        q.loss_grad(np.zeros(2), _toy_batch())
    lr = LogisticRegression(num_features=2, num_classes=2)
    with pytest.raises(ValueError):
        lr.loss_grad(np.zeros(lr.dim), None)


def test_batch_feature_width_and_label_range_checked():
    lr = LogisticRegression(num_features=3, num_classes=2)
    bad_width = Batch(features=np.zeros((2, 2)), labels=np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        lr.loss_grad(np.zeros(lr.dim), bad_width)
    bad_labels = Batch(
        features=np.zeros((2, 3)), labels=np.array([0, 2], dtype=np.int64)
    )
    with pytest.raises(ValueError):
        lr.loss_grad(np.zeros(lr.dim), bad_labels)


@pytest.mark.parametrize("labels", [[False, True], [0.0, 1.0]], ids=["bool", "float"])
def test_loss_grad_refuses_batch_labels_that_are_not_integers(labels):
    # numpy reads bool labels as a mask and float labels cannot index
    lr = LogisticRegression(num_features=2, num_classes=2)
    labels = np.array(labels)
    batch = Batch(features=np.array([[1.0, 2.0], [3.0, -1.0]]), labels=labels)
    with pytest.raises(ValueError, match=f"^batch labels must be integers, got dtype {labels.dtype}$"):
        lr.loss_grad(lr.init_params(0), batch)


# -------------------------------------------------------------------------
# batch-mean semantics
# -------------------------------------------------------------------------


def test_batch_mean_linearity():
    # whole-batch loss/grad equals the average of per-example ones
    m = MLP1(num_features=3, num_classes=2, hidden=4)
    params = m.init_params(3)
    feats = rng.normals(70, 18).reshape(6, 3)
    labels = (rng.random_u64(71, 6) % np.uint64(2)).astype(np.int64)
    whole = Batch(features=feats, labels=labels)
    loss_w, grad_w = m.loss_grad(params, whole)
    losses, grads = [], []
    for i in range(6):
        li, gi = m.loss_grad(
            params, Batch(features=feats[i : i + 1], labels=labels[i : i + 1])
        )
        losses.append(li)
        grads.append(gi)
    assert loss_w == pytest.approx(np.mean(losses), rel=1e-12)
    np.testing.assert_allclose(grad_w, np.mean(grads, axis=0), rtol=1e-12, atol=1e-15)


def test_permutation_invariance():
    lr = LogisticRegression(num_features=4, num_classes=3)
    params = lr.init_params(11)
    feats = rng.normals(72, 40).reshape(10, 4)
    labels = (rng.random_u64(73, 10) % np.uint64(3)).astype(np.int64)
    base_loss, base_grad = lr.loss_grad(params, Batch(features=feats, labels=labels))
    perm = rng.permutation(74, 10)
    shuf_loss, shuf_grad = lr.loss_grad(
        params, Batch(features=feats[perm].copy(), labels=labels[perm].copy())
    )
    assert abs(base_loss - shuf_loss) < 1e-12
    assert np.max(np.abs(base_grad - shuf_grad)) < 1e-12


# -------------------------------------------------------------------------
# the full gradient check
# -------------------------------------------------------------------------


def test_gradient_check_all_kinds_20_draws():
    worst = 0.0
    kinds = []
    for problem, pairs in default_problems_for_gradcheck():
        kinds.append(problem.kind)
        for params, batch in pairs:
            _, analytic = problem.loss_grad(params, batch)
            numeric = finite_diff_grad(problem, params, batch)
            worst = max(worst, relative_error(analytic, numeric))
    assert kinds == ["quadratic", "rosenbrock", "logreg", "mlp1"]
    assert worst < 1e-5


def _per_coordinate_fd(problem, params, batch):
    # the coordinate-at-a-time oracle: two 1-D loss evaluations per entry
    h = 1e-6
    grad = np.zeros_like(params)
    for i in range(params.shape[0]):
        bumped = params.copy()
        bumped[i] = params[i] + h
        hi = problem.loss_grad(bumped, batch)[0]
        bumped[i] = params[i] - h
        lo = problem.loss_grad(bumped, batch)[0]
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def _recording_loss_grad(problem):
    """The stacks that ``problem``'s `loss_grad` is called with from now on."""
    calls, real = [], problem.loss_grad

    def recorded(params, batch=None):
        calls.append(params.copy())
        return real(params, batch)

    problem.loss_grad = recorded
    return calls


def test_finite_diff_grad_is_the_per_coordinate_loop_in_one_call():
    draws = 0
    for problem, pairs in default_problems_for_gradcheck():
        for params, batch in pairs:
            expected = _per_coordinate_fd(problem, params, batch)
            calls = _recording_loss_grad(problem)
            assert finite_diff_grad(problem, params, batch).tobytes() == expected.tobytes()
            assert [c.shape for c in calls] == [(2 * problem.dim, problem.dim)]
            del problem.loss_grad
            draws += 1
    assert draws == 80


def test_finite_diff_probes_keep_negative_zeros():
    q = Quadratic(np.eye(3), np.array([1.0, -2.0, 0.5]))
    theta = np.array([-0.0, 0.25, -0.0])
    calls = _recording_loss_grad(q)
    finite_diff_grad(q, theta)
    for k, probe in enumerate(calls[0]):
        i = k % 3
        others = np.arange(3) != i
        assert probe[others].tobytes() == theta[others].tobytes()
        assert probe[i] == theta[i] + (1e-6 if k < 3 else -1e-6)


@pytest.mark.parametrize("shape", [(7,), (2, 10), (10, 10)])
def test_finite_diff_grad_refuses_anything_but_one_parameter_vector(shape):
    # loss_grad's message, naming the given shape rather than the probe stack
    message = f"quadratic expects 10 parameters, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        finite_diff_grad(build_problem("quadratic").problem, np.zeros(shape))


def test_quadratic_fd_is_tight():
    # central differences are exact for quadratics up to roundoff
    q = Quadratic(np.eye(3), np.array([1.0, -2.0, 0.5]))
    theta = np.array([0.3, -1.0, 2.0])
    _, analytic = q.loss_grad(theta)
    fd = finite_diff_grad(q, theta)
    assert relative_error(analytic, fd) < 1e-8


def test_relative_error_definition():
    assert relative_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    # |3-1| / max(3,1,1) = 2/3
    assert relative_error(np.array([3.0]), np.array([1.0])) == pytest.approx(2.0 / 3.0)
    # floor kicks in for small values: |1e-9 - 0| / 1.0
    assert relative_error(np.array([1e-9]), np.array([0.0])) == pytest.approx(1e-9)


def test_relative_error_propagates_nan_and_refuses_mismatched_shapes():
    ones = np.ones((2, 2))
    for a, b in ((ones, np.where(np.eye(2) > 0, np.nan, 1.0)), ([[1.0, np.nan]], [[1.0, 2.0]])):
        assert math.isnan(relative_error(a, b)) and math.isnan(relative_error(b, a))
    with pytest.raises(ValueError, match=r"shapes \(1, 2\) and \(2, 2\)"):
        relative_error(np.array([[1.0, 2.0]]), ones)


# -------------------------------------------------------------------------
# stacked evaluation: row r of a stack equals the single-run call, bitwise
# -------------------------------------------------------------------------


def _stack_cases():
    # shapes cover one-wide layers (also over a full batch), two classes,
    # batches below, at and above the 8-wide unrolled summation block, and a
    # short final batch of one
    for i, (p, k, h, n, r) in enumerate(
        [
            (8, 3, 16, 32, 9),
            (5, 2, 1, 1, 3),
            (3, 4, 7, 9, 1),
            (8, 3, 64, 33, 5),
            (2, 2, 3, 120, 4),
            (4, 3, 1, 32, 6),
        ]
    ):
        for problem in (LogisticRegression(p, k), MLP1(p, k, hidden=h)):
            key = rng.derive_key(900 + i, problem.dim)
            params = 3.0 * rng.normals(rng.derive_key(key, 0), r * problem.dim)
            feats = rng.normals(rng.derive_key(key, 1), r * n * p).reshape(r, n, p)
            labels = rng.random_u64(rng.derive_key(key, 2), r * n) % np.uint64(k)
            yield problem, params.reshape(r, problem.dim), feats, labels.astype(np.int64).reshape(r, n)


def test_stacked_loss_grad_rows_equal_single_calls():
    for problem, params, feats, labels in _stack_cases():
        losses, grads = problem.loss_grad(params, Batch(feats, labels))
        assert losses.shape == (len(params),) and grads.shape == params.shape
        for r, row in enumerate(params):
            loss, grad = problem.loss_grad(row, Batch(feats[r], labels[r]))
            assert isinstance(loss, float)
            assert np.float64(loss).tobytes() == losses[r].tobytes()
            assert grad.tobytes() == grads[r].tobytes()


def test_stacked_params_over_one_shared_batch_equal_single_calls():
    for problem, params, feats, labels in _stack_cases():
        shared = Batch(feats[0], labels[0])
        losses, grads = problem.loss_grad(params, shared)
        for r, row in enumerate(params):
            loss, grad = problem.loss_grad(row, shared)
            assert np.float64(loss).tobytes() == losses[r].tobytes()
            assert grad.tobytes() == grads[r].tobytes()


def test_stacked_predict_rows_equal_single_calls():
    for problem, params, feats, _ in _stack_cases():
        predicted = problem.predict(params, feats[0])
        assert predicted.shape == (len(params), feats.shape[1])
        for r, row in enumerate(params):
            assert problem.predict(row, feats[0]).tobytes() == predicted[r].tobytes()
            assert problem.predict(row, feats[r]).tobytes() == problem.predict(
                params, feats
            )[r].tobytes()


# SHA-256 over the losses, gradient and predicted labels of a 3-row stacked
# batch, then of one batch shared by the 3 rows; bitwise within the replay
# gate's scope (docs/determinism.md, "Scope of the bitwise contract")
_CLASSIFIER_DIGESTS = {
    "logreg": "88b7dd38ccf9b1eaee8d5db031ddb35b32ab519a2029535ec900615bdfb6d01f",
    "mlp1-h1": "588ca1ff1063f011ade636204870c18da398b8797f3d9553f53e98281a06442b",
    "mlp1-h16": "7e1ce32f5faad14f33513f3613702777f924b8a0086e4aa0c201c43bfbe7c457",
    "mlp1-h1024": "b9f144cd25f5a454fb26548fef25510b7c781d007edd608bd3e4f8b4b1d4099f",
}
_FROZEN_CLASSIFIERS = [
    ("logreg", LogisticRegression(8, 3)),
    *((f"mlp1-h{h}", MLP1(8, 3, hidden=h)) for h in (1, 16, 1024)),
]


@pytest.mark.host_kernels
@pytest.mark.parametrize(
    "name,problem", _FROZEN_CLASSIFIERS, ids=[n for n, _ in _FROZEN_CLASSIFIERS]
)
def test_classifier_evaluations_are_frozen(name, problem):
    # hidden 1 takes _over_batch's one-wide branch, 1024 is wide-mlp's width
    r, n = 3, 20
    key = rng.derive_key(990, problem.dim)
    params = 2.0 * rng.normals(rng.derive_key(key, 0), r * problem.dim).reshape(r, -1)
    feats = rng.normals(rng.derive_key(key, 1), r * n * 8).reshape(r, n, 8)
    labels = (rng.random_u64(rng.derive_key(key, 2), r * n) % np.uint64(3)).astype(np.int64)
    stacked = Batch(feats, labels.reshape(r, n))
    digest = hashlib.sha256()
    for batch in (stacked, Batch(feats[0], stacked.labels[0])):
        losses, grads = problem.loss_grad(params, batch)
        for value in (losses, grads, problem.predict(params, batch.features)):
            digest.update(value.tobytes())
    assert digest.hexdigest() == _CLASSIFIER_DIGESTS[name]


def _analytic_row_reference(problem, row):
    # the per-row formulas: A @ row is one gemv, and Python floats round each
    # operation as numpy's elementwise calls do, overflowing without raising
    if isinstance(problem, Quadratic):
        a_theta = problem.matrix @ row
        return 0.5 * float(row @ a_theta) - float(problem.rhs @ row), a_theta - problem.rhs
    x, y = float(row[0]), float(row[1])
    d, inner = 1.0 - x, y - x * x
    return d * d + 100.0 * (inner * inner), np.array([-2.0 * d - 400.0 * x * inner, 200.0 * inner])


def _analytic_stacks():
    registered = build_problem("quadratic").problem
    gradcheck = next(default_problems_for_gradcheck())[0]
    for problem in (registered, gradcheck, Rosenbrock2D()):
        for r in (1, 2, 9, 45, 90):
            key = rng.derive_key(12, 100 * r + problem.dim)
            stack = 3.0 * rng.normals(key, r * problem.dim).reshape(r, problem.dim)
            if problem.dim == 2:
                # rows scaled up to 1e300, where x * x and the loss overflow
                stack *= 10.0 ** (np.arange(r) * 300 // max(r - 1, 1))[:, None]
            yield problem, stack


def test_analytic_stacked_rows_equal_single_calls_and_row_formulas():
    overflowed = 0
    for problem, stack in _analytic_stacks():
        losses, grads = problem.loss_grad(stack)
        assert losses.shape == (len(stack),) and grads.shape == stack.shape
        overflowed += int(np.isinf(losses).sum())
        for r, row in enumerate(stack):
            loss, grad = problem.loss_grad(row)
            assert isinstance(loss, float)
            assert np.float64(loss).tobytes() == losses[r].tobytes()
            assert grad.tobytes() == grads[r].tobytes()
            ref_loss, ref_grad = _analytic_row_reference(problem, row)
            assert np.float64(ref_loss).tobytes() == losses[r].tobytes()
            assert ref_grad.tobytes() == grads[r].tobytes()
    assert overflowed > 0


@pytest.mark.parametrize("rows", [(), (2,)], ids=["1-D", "stacked"])
def test_predict_checks_the_call_as_loss_grad_does(rows):
    mlp = MLP1(8, 3, hidden=16)
    feats = rng.normals(81, 5 * 8).reshape(5, 8)
    labels = np.zeros(5, dtype=np.int64)
    # twice the parameters, and a batch one feature short
    for width, features in ((390, feats), (195, feats[:, :7])):
        params = np.zeros(rows + (width,))
        with pytest.raises(ValueError) as refused:
            mlp.loss_grad(params, Batch(features, labels))
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            mlp.predict(params, features)


@pytest.mark.parametrize(
    "shape,stack",
    [((195,), 2), ((2, 195), 1), ((2, 195), 3)],
    ids=["1-D-params", "one-batch-for-two-rows", "three-batches-for-two-rows"],
)
def test_predict_refuses_a_stack_as_loss_grad_does(shape, stack):
    # a 1-D row would drop every batch but the first, one batch would
    # broadcast across the rows, and three would fail inside matmul
    mlp = MLP1(8, 3, hidden=16)
    params, features = np.zeros(shape), np.zeros((stack, 5, 8))
    with pytest.raises(ValueError) as refused:
        mlp.loss_grad(params, Batch(features, np.zeros((stack, 5), dtype=np.int64)))
    assert f"a stack of {stack} batches" in str(refused.value)
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        mlp.predict(params, features)


@pytest.mark.parametrize("shape", [(8,), (1, 2, 3, 8)], ids=["1-D", "4-D"])
@pytest.mark.parametrize(
    "problem", [LogisticRegression(8, 3), MLP1(8, 3, hidden=16)], ids=["logreg", "mlp1"]
)
def test_predict_refuses_features_no_batch_holds(problem, shape):
    # loss_grad never sees such features: a Batch refuses them first
    features = np.zeros(shape)
    with pytest.raises(ValueError) as refused:
        Batch(features, np.zeros(shape[:-1], dtype=np.int64))
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        problem.predict(np.zeros(problem.dim), features)


@pytest.mark.parametrize("rows", [(), (2,)], ids=["1-D", "stacked"])
def test_predict_refuses_zero_examples_as_a_batch_does(rows):
    mlp = MLP1(8, 3, hidden=16)
    with pytest.raises(ValueError, match="^a batch needs at least one example$"):
        mlp.predict(np.zeros(rows + (mlp.dim,)), np.zeros((0, 8)))


def test_stacked_batch_needs_one_parameter_row_per_batch():
    problem, params, feats, labels = next(_stack_cases())
    with pytest.raises(ValueError, match="stack of 9 batches"):
        problem.loss_grad(params[:2], Batch(feats, labels))
    with pytest.raises(ValueError, match="stack of 9 batches"):
        problem.loss_grad(params[0], Batch(feats, labels))
    with pytest.raises(ValueError, match="parameters"):
        problem.loss_grad(params[:, :-1], Batch(feats, labels))


# -------------------------------------------------------------------------
# the softmax head's reductions give numpy's bytes
# -------------------------------------------------------------------------


def _mixed_scale(key, shape):
    # normals times powers of ten from 1e-20 to 1e20
    n = math.prod(shape)
    powers = (rng.random_u64(rng.derive_key(key, 1), n) % np.uint64(41)).astype(np.int64)
    return (rng.normals(rng.derive_key(key, 0), n) * 10.0 ** (powers - 20)).reshape(shape)


@pytest.mark.parametrize("k", range(2, 8))
def test_class_reductions_equal_numpys_on_mixed_scales(k):
    x = _mixed_scale(950 + k, (42, 32, k))
    assert _over_classes(np.maximum, x).tobytes() == x.max(axis=-1).tobytes()
    assert _over_classes(np.add, x).tobytes() == x.sum(axis=-1).tobytes()


# with K = 5 and 6, some rows hold 0.0 and -0.0 under a zero max, and
# numpy's loops without AVX-512 keep the other zero
@pytest.mark.parametrize(
    "k",
    [pytest.param(k, marks=pytest.mark.host_kernels) if k in (5, 6) else k for k in range(2, 8)],
)
def test_class_reductions_equal_numpys_on_nonfinite_rows(k):
    # a row without NaN, infinities and signed zeros included, gives numpy's
    # bytes where numpy's max keeps the same zero; a row with a NaN gives
    # NaN, whose sign bit numpy itself picks differently in its scalar and
    # SIMD loops
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -2.5])
    pick = rng.random_u64(rng.derive_key(960, k), 8 * 50 * k) % np.uint64(len(specials))
    x = specials[pick.astype(np.int64)].reshape(8, 50, k)
    has_nan = np.isnan(x).any(axis=-1)
    assert has_nan.any() and not has_nan.all()
    with np.errstate(invalid="ignore"):
        for ufunc, reduced in ((np.maximum, x.max(axis=-1)), (np.add, x.sum(axis=-1))):
            got = _over_classes(ufunc, x)
            assert got[~has_nan].tobytes() == reduced[~has_nan].tobytes()
            assert np.isnan(got[has_nan]).all() and np.isnan(reduced[has_nan]).all()


def test_class_sum_folds_left_to_right_from_zero():
    # (1 + 2**-53) + 2**-53 rounds to 1 twice; any other grouping gives 1 + 2**-52
    x = np.array([[1.0, 2.0**-53, 2.0**-53]])
    assert x.sum(axis=-1).tolist() == [1.0]
    assert _over_classes(np.add, x).tolist() == [1.0]
    # the sum starts from +0, so negative zeros sum to +0; the max keeps -0
    zeros = np.array([[-0.0, -0.0, -0.0]])
    assert _over_classes(np.add, zeros).tobytes() == zeros.sum(axis=-1).tobytes()
    assert _over_classes(np.maximum, zeros).tobytes() == zeros.max(axis=-1).tobytes()
    assert np.signbit(zeros.max(axis=-1)) and not np.signbit(zeros.sum(axis=-1))


@pytest.mark.parametrize(
    "shape", [(42, 32, 3), (42, 32, 16), (6, 32, 16), (1, 32, 1024), (42, 32, 1), (1, 32, 1)]
)
def test_batch_sum_equals_numpys(shape):
    x = _mixed_scale(970 + shape[0] + shape[-1], shape)
    assert _over_batch(x).tobytes() == x.sum(axis=1).tobytes()
