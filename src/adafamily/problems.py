"""Desk-scale differentiable objectives with analytic gradients.

Four problem kinds: an SPD quadratic and the 2-D Rosenbrock valley
(analytic, no data), plus multinomial logistic regression and a one-
hidden-layer tanh MLP (data-driven, softmax cross-entropy).  Every
analytic gradient is cross-checkable against `finite_diff_grad`, a
central-difference oracle that only ever calls the loss.

Batch reductions are the mean over the batch's rows computed by numpy
(pairwise summation over a fixed row order), so evaluations are
deterministic for a given batch and stable under row permutation to
roughly 1e-15 per element.

Every evaluation also takes a stack of R parameter vectors, one per run,
and computes each row independently: row r of a stacked call equals the
single-run call byte for byte (see `Problem` and docs/determinism.md).

Parameter layouts are fixed and documented per class; `init_params` is
seed-deterministic through :mod:`adafamily.rng`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from . import rng
from .data import Batch


class Problem:
    """Base interface: a differentiable objective over a flat parameter vector.

    Evaluations take either one parameter vector of shape (dim,) or a stack
    of R independent rows of shape (R, dim).  A stack gives (R,) losses and
    an (R, dim) gradient whose row r equals, byte for byte, the 1-D call on
    row r (with row r of the batch when the batch is stacked too).  This
    default loops over the rows with `row_loss_grad`; the data problems
    override `loss_grad` with one stacked evaluation.
    """

    kind: str = "abstract"
    dim: int = 0
    requires_batch: bool = False

    def loss(self, params: np.ndarray, batch: Batch | None = None):
        return self.loss_grad(params, batch)[0]

    def loss_grad(self, params: np.ndarray, batch: Batch | None = None):
        self._check_eval(params, batch)
        if params.ndim == 1:
            return self.row_loss_grad(params, batch)
        pairs = [
            self.row_loss_grad(row, _batch_row(batch, r)) for r, row in enumerate(params)
        ]
        return np.array([loss for loss, _ in pairs]), np.stack([grad for _, grad in pairs])

    def row_loss_grad(
        self, params: np.ndarray, batch: Batch | None
    ) -> tuple[float, np.ndarray]:
        """Loss and gradient of one (dim,) row; called after `_check_eval`."""
        raise NotImplementedError

    def init_params(self, seed: int) -> np.ndarray:
        raise NotImplementedError

    def _check_eval(self, params: np.ndarray, batch: Batch | None) -> None:
        if params.ndim not in (1, 2) or params.shape[-1] != self.dim:
            raise ValueError(
                f"{self.kind} expects {self.dim} parameters, got shape {params.shape}"
            )
        if self.requires_batch and batch is None:
            raise ValueError(f"{self.kind} needs a batch")
        if not self.requires_batch and batch is not None:
            raise ValueError(f"{self.kind} is analytic, a batch makes no sense here")
        if batch is not None and batch.features.ndim == 3:
            if params.ndim != 2 or batch.features.shape[0] != params.shape[0]:
                raise ValueError(
                    f"a stack of {batch.features.shape[0]} batches needs as many "
                    f"parameter rows, got shape {params.shape}"
                )


def _batch_row(batch: Batch | None, r: int) -> Batch | None:
    if batch is None or batch.features.ndim == 2:
        return batch
    return Batch(features=batch.features[r], labels=batch.labels[r])


class Quadratic(Problem):
    """f(theta) = 0.5 theta'A theta - b'theta with A symmetric positive definite."""

    kind = "quadratic"

    def __init__(self, matrix: np.ndarray, rhs: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        if rhs.shape != (matrix.shape[0],):
            raise ValueError("rhs length must match matrix")
        if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        # positive definiteness via Cholesky; raises LinAlgError otherwise
        np.linalg.cholesky(matrix)
        self.matrix = matrix
        self.rhs = rhs
        self.dim = matrix.shape[0]
        self._optimum = np.linalg.solve(matrix, rhs)

    @property
    def optimum(self) -> np.ndarray:
        """The unique minimizer A^{-1} b."""
        return self._optimum.copy()

    @property
    def min_loss(self) -> float:
        """f at the minimizer: -0.5 b'A^{-1}b."""
        return -0.5 * float(self.rhs @ self._optimum)

    def row_loss_grad(self, params, batch):
        a_theta = self.matrix @ params
        loss = 0.5 * float(params @ a_theta) - float(self.rhs @ params)
        return loss, a_theta - self.rhs

    def init_params(self, seed: int) -> np.ndarray:
        # documented fixed start: the origin, independent of seed
        return np.zeros(self.dim)


class Rosenbrock2D(Problem):
    """f(x, y) = (1-x)^2 + 100 (y - x^2)^2, minimized at (1, 1)."""

    kind = "rosenbrock"
    dim = 2
    START = (-1.2, 1.0)

    def row_loss_grad(self, params, batch):
        x, y = float(params[0]), float(params[1])
        inner = y - x * x
        try:
            loss = (1.0 - x) ** 2 + 100.0 * inner**2
        except OverflowError:
            # float ** raises where x * x overflows to inf; the run diverges
            loss = math.inf
        gx = -2.0 * (1.0 - x) - 400.0 * x * inner
        gy = 200.0 * inner
        return loss, np.array([gx, gy])

    def init_params(self, seed: int) -> np.ndarray:
        # documented fixed start: the conventional (-1.2, 1.0)
        return np.array(self.START)


def _softmax_ce(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mean cross-entropy and d(loss)/d(logits), max-subtraction stabilized.

    ``logits`` is (R, B, K); ``labels`` is (B,) or (R, B).  The per-sample
    reductions run over the class axis, the last and contiguous one.
    """
    # in-place steps round exactly as the out-of-place expressions would
    probs = logits - logits.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    r, n = logits.shape[0], logits.shape[1]
    at_label = (np.arange(r)[:, None], np.arange(n), labels)
    losses = np.mean(-np.log(np.maximum(probs[at_label], 1e-300)), axis=-1)
    probs[at_label] -= 1.0
    probs /= n
    return losses, probs


def _check_batch_against(num_features: int, num_classes: int, batch: Batch) -> None:
    if batch.features.shape[-1] != num_features:
        raise ValueError(
            f"batch has {batch.features.shape[-1]} features, problem expects {num_features}"
        )
    if batch.labels.min() < 0 or batch.labels.max() >= num_classes:
        raise ValueError(f"batch labels must lie in [0, {num_classes})")


def _stacked(params: np.ndarray) -> np.ndarray:
    return params.reshape(-1, params.shape[-1])


def _transposed(matrices: np.ndarray) -> np.ndarray:
    return matrices.transpose(0, 2, 1)


def _unstacked(params: np.ndarray, losses: np.ndarray, grad: np.ndarray):
    # a 1-D call is the one-row stack, returned without its stack axis
    if params.ndim == 1:
        return float(losses[0]), grad[0]
    return losses, grad


class LogisticRegression(Problem):
    """Multinomial softmax regression.

    Parameter layout (documented, fixed): weight matrix W (num_classes x
    num_features) flattened row-major, then the bias vector (num_classes).
    """

    kind = "logreg"
    requires_batch = True

    def __init__(self, num_features: int, num_classes: int):
        if num_features < 1 or num_classes < 2:
            raise ValueError("need num_features >= 1 and num_classes >= 2")
        self.num_features = num_features
        self.num_classes = num_classes
        self.dim = num_classes * num_features + num_classes

    def _unpack(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (..., dim) -> W (..., k, p) and b (..., k), views into params
        k, p = self.num_classes, self.num_features
        lead = params.shape[:-1]
        return params[..., : k * p].reshape(lead + (k, p)), params[..., k * p :]

    def _logits(self, params: np.ndarray, features: np.ndarray) -> np.ndarray:
        w, b = self._unpack(_stacked(params))
        return features @ _transposed(w) + b[:, None, :]

    def loss_grad(self, params, batch=None):
        self._check_eval(params, batch)
        _check_batch_against(self.num_features, self.num_classes, batch)
        losses, dlogits = _softmax_ce(self._logits(params, batch.features), batch.labels)
        grad_w = _transposed(dlogits) @ batch.features
        grad_b = dlogits.sum(axis=1)
        grad = np.concatenate([grad_w.reshape(len(losses), -1), grad_b], axis=1)
        return _unstacked(params, losses, grad)

    def predict(self, params: np.ndarray, features: np.ndarray) -> np.ndarray:
        labels = np.argmax(self._logits(params, features), axis=-1)
        return labels[0] if params.ndim == 1 else labels

    def init_params(self, seed: int) -> np.ndarray:
        # uniform(-s, s) with s = 1/sqrt(fan_in) for weights and biases
        s = 1.0 / math.sqrt(self.num_features)
        u = rng.uniforms(rng.derive_key(seed, 0), self.dim)
        return s * (2.0 * u - 1.0)


class MLP1(Problem):
    """One hidden tanh layer, softmax cross-entropy output.

    Parameter layout (documented, fixed): W1 (hidden x num_features)
    row-major, b1 (hidden), W2 (num_classes x hidden) row-major,
    b2 (num_classes).
    """

    kind = "mlp1"
    requires_batch = True

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        hidden: int,
        activation: str = "tanh",
    ):
        if num_features < 1 or num_classes < 2 or hidden < 1:
            raise ValueError("need num_features >= 1, num_classes >= 2, hidden >= 1")
        if activation != "tanh":
            raise ValueError(f"unsupported activation {activation!r}, only 'tanh'")
        self.num_features = num_features
        self.num_classes = num_classes
        self.hidden = hidden
        self.activation = activation
        self._sizes = (
            hidden * num_features,
            hidden,
            num_classes * hidden,
            num_classes,
        )
        self.dim = sum(self._sizes)

    def _unpack(self, params: np.ndarray):
        # (..., dim) -> W1 (..., h, p), b1 (..., h), W2 (..., k, h), b2 (..., k),
        # views into params
        h, p, k = self.hidden, self.num_features, self.num_classes
        s1, s2, s3, _ = self._sizes
        o = np.cumsum((0, s1, s2, s3))
        lead = params.shape[:-1]
        w1 = params[..., o[0] : o[1]].reshape(lead + (h, p))
        b1 = params[..., o[1] : o[2]]
        w2 = params[..., o[2] : o[3]].reshape(lead + (k, h))
        b2 = params[..., o[3] :]
        return w1, b1, w2, b2

    @staticmethod
    def _hidden(w1: np.ndarray, b1: np.ndarray, features: np.ndarray) -> np.ndarray:
        # tanh(features @ W1' + b1) per row, (R, n, h), in one buffer
        a1 = features @ _transposed(w1)
        a1 += b1[:, None, :]
        return np.tanh(a1, out=a1)

    def loss_grad(self, params, batch=None):
        self._check_eval(params, batch)
        _check_batch_against(self.num_features, self.num_classes, batch)
        w1, b1, w2, b2 = self._unpack(_stacked(params))
        a1 = self._hidden(w1, b1, batch.features)
        logits = a1 @ _transposed(w2)
        logits += b2[:, None, :]
        losses, dlogits = _softmax_ce(logits, batch.labels)
        grad_w2 = _transposed(dlogits) @ a1
        grad_b2 = dlogits.sum(axis=1)
        # dz1 = da1 * (1 - a1 * a1), computed in place over da1 and a1
        dz1 = dlogits @ w2
        np.multiply(a1, a1, out=a1)
        np.subtract(1.0, a1, out=a1)
        dz1 *= a1
        grad_w1 = _transposed(dz1) @ batch.features
        grad_b1 = dz1.sum(axis=1)
        r = len(losses)
        grad = np.concatenate(
            [grad_w1.reshape(r, -1), grad_b1, grad_w2.reshape(r, -1), grad_b2], axis=1
        )
        return _unstacked(params, losses, grad)

    def predict(self, params: np.ndarray, features: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self._unpack(_stacked(params))
        logits = self._hidden(w1, b1, features) @ _transposed(w2)
        logits += b2[:, None, :]
        labels = np.argmax(logits, axis=-1)
        return labels[0] if params.ndim == 1 else labels

    def init_params(self, seed: int) -> np.ndarray:
        # uniform(-s, s) per layer with s = 1/sqrt(fan_in of that layer)
        s1 = 1.0 / math.sqrt(self.num_features)
        s2 = 1.0 / math.sqrt(self.hidden)
        u = rng.uniforms(rng.derive_key(seed, 0), self.dim)
        scaled = 2.0 * u - 1.0
        n1 = self._sizes[0] + self._sizes[1]
        scaled[:n1] *= s1
        scaled[n1:] *= s2
        return scaled


def eval_loss_grad(
    problem: Problem, params: np.ndarray, batch: Batch | None = None
) -> tuple[float, np.ndarray]:
    """Loss and exact analytic gradient (mean over the batch when present)."""
    return problem.loss_grad(np.asarray(params, dtype=np.float64), batch)


def finite_diff_grad(
    problem: Problem,
    params: np.ndarray,
    batch: Batch | None = None,
    h: float = 1e-6,
) -> np.ndarray:
    """Central differences (f(x+h e_i) - f(x-h e_i)) / 2h, one coordinate at a time."""
    if h <= 0.0:
        raise ValueError(f"h must be > 0, got {h}")
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for i in range(params.shape[0]):
        bumped = params.copy()
        bumped[i] = params[i] + h
        hi = problem.loss(bumped, batch)
        bumped[i] = params[i] - h
        lo = problem.loss(bumped, batch)
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def init_params(problem: Problem, seed: int) -> np.ndarray:
    """Seed-deterministic starting parameters for the problem."""
    return problem.init_params(seed)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max_i |a_i - b_i| / max(|a_i|, |b_i|, 1): elementwise with a unit floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def spd_quadratic(seed: int, dim: int, cond: float, scale: float = 1.0) -> Quadratic:
    """Random SPD quadratic with eigenvalues geomspaced over [scale/cond, scale].

    The eigenbasis is a seed-deterministic random rotation (QR of a square
    Gaussian matrix with the sign convention R_ii > 0); the right-hand side
    places the minimizer at a seed-deterministic unit-scale point.
    """
    if dim < 1 or cond < 1.0 or scale <= 0.0:
        raise ValueError("need dim >= 1, cond >= 1 and scale > 0")
    eig = np.geomspace(scale / cond, scale, dim)
    gauss = rng.normals(rng.derive_key(seed, 0), dim * dim).reshape(dim, dim)
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    matrix = (q * eig) @ q.T
    matrix = 0.5 * (matrix + matrix.T)
    optimum = rng.normals(rng.derive_key(seed, 1), dim)
    return Quadratic(matrix, matrix @ optimum)


def _random_batch(key: int, n: int, num_features: int, num_classes: int) -> Batch:
    feats = rng.normals(rng.derive_key(key, 0), n * num_features)
    labels = rng.random_u64(rng.derive_key(key, 1), n) % np.uint64(num_classes)
    return Batch(
        features=feats.reshape(n, num_features), labels=labels.astype(np.int64)
    )


def default_problems_for_gradcheck(
    draws: int = 20,
) -> Iterator[tuple[Problem, Iterable[tuple[np.ndarray, Batch | None]]]]:
    """(problem, [(params, batch), ...]) covering all four kinds.

    Used by the gradient self-check: every analytic gradient is compared
    to the central-difference oracle over `draws` random evaluation points.
    """
    quad = spd_quadratic(501, 6, 50.0)
    yield quad, [
        (rng.normals(rng.derive_key(502, i), quad.dim), None) for i in range(draws)
    ]
    rosen = Rosenbrock2D()
    yield rosen, [
        (rng.normals(rng.derive_key(503, i), 2), None) for i in range(draws)
    ]
    logreg = LogisticRegression(num_features=5, num_classes=3)
    yield logreg, [
        (
            logreg.init_params(600 + i),
            _random_batch(rng.derive_key(504, i), 8, 5, 3),
        )
        for i in range(draws)
    ]
    mlp = MLP1(num_features=6, num_classes=3, hidden=8)
    yield mlp, [
        (
            mlp.init_params(700 + i),
            _random_batch(rng.derive_key(505, i), 8, 6, 3),
        )
        for i in range(draws)
    ]
