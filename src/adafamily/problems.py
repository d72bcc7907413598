"""Desk-scale differentiable objectives with analytic gradients.

Four problem kinds: an SPD quadratic and the 2-D Rosenbrock valley
(analytic, no data), plus multinomial logistic regression and a one-
hidden-layer tanh MLP (data-driven, softmax cross-entropy).  Every
analytic gradient is cross-checkable against `finite_diff_grad`, a
central-difference oracle that reads only loss values.

Batch reductions are the mean over the batch's rows computed by numpy
(pairwise summation over a fixed row order), so evaluations are
deterministic for a given batch and stable under row permutation to
roughly 1e-15 per element.

Every evaluation also takes a stack of R parameter vectors, one per run,
and computes each row independently: row r of a stacked call equals the
single-run call byte for byte.  `Problem.loss_grad` checks every call
and treats a 1-D call as the one-row stack; every problem evaluates stacks
only, through one path, and a caller that needs only the loss reads
``loss_grad(...)[0]``.  The two classifiers share one softmax head (see
`Problem` and docs/determinism.md).

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
    row r (with row r of the batch when the batch is stacked too).

    `loss_grad` checks the call and evaluates a 1-D call as the one-row
    stack, through `_loss_grad`, the one evaluation path; a subclass
    supplies only `_loss_grad` over (R, dim) stacks and `init_params`.
    """

    kind: str = "abstract"
    dim: int = 0
    requires_batch: bool = False

    def loss_grad(self, params: np.ndarray, batch: Batch | None = None):
        self._check_eval(params, batch)
        losses, grad = self._loss_grad(params.reshape(-1, self.dim), batch)
        return (float(losses[0]), grad[0]) if params.ndim == 1 else (losses, grad)

    def _loss_grad(
        self, stack: np.ndarray, batch: Batch | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(R,) losses and the (R, dim) gradient of an (R, dim) stack."""
        raise NotImplementedError

    def init_params(self, seed: int) -> np.ndarray:
        raise NotImplementedError

    def _check_params(self, params: np.ndarray) -> None:
        if params.ndim not in (1, 2) or params.shape[-1] != self.dim:
            raise ValueError(
                f"{self.kind} expects {self.dim} parameters, got shape {params.shape}"
            )

    def _check_eval(self, params: np.ndarray, batch: Batch | None) -> None:
        self._check_params(params)
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
        # f at the minimizer A^{-1} b
        self.min_loss = -0.5 * float(rhs @ np.linalg.solve(matrix, rhs))

    def _loss_grad(self, stack, batch):
        # matmul makes one gemv per row, as A @ row does; stack @ A' would be
        # one gemm, which rounds differently.  Far from the optimum the terms
        # overflow to inf, inf - inf gives NaN, and the run diverges.
        rows = stack[:, None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            a_theta = np.matmul(self.matrix, stack[:, :, None])
            losses = 0.5 * (rows @ a_theta)[:, 0, 0] - (rows @ self.rhs[:, None])[:, 0, 0]
            return losses, a_theta[:, :, 0] - self.rhs

    def init_params(self, seed: int) -> np.ndarray:
        # documented fixed start: the origin, independent of seed
        return np.zeros(self.dim)


class Rosenbrock2D(Problem):
    """f(x, y) = (1-x)^2 + 100 (y - x^2)^2, minimized at (1, 1)."""

    kind = "rosenbrock"
    dim = 2
    START = (-1.2, 1.0)

    def _loss_grad(self, stack, batch):
        # squares are products (d * d, not d ** 2), which round correctly
        # where libm pow may not.  Far from the valley the terms overflow to
        # inf and the run diverges.
        x, y = stack[:, 0], stack[:, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            d, inner = 1.0 - x, y - x * x
            losses = d * d + 100.0 * (inner * inner)
            return losses, np.stack([-2.0 * d - 400.0 * x * inner, 200.0 * inner], axis=1)

    def init_params(self, seed: int) -> np.ndarray:
        # documented fixed start: the conventional (-1.2, 1.0)
        return np.array(self.START)


def _over_classes(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1)`` as elementwise calls across the columns
    of the last (class) axis, in class order.

    numpy starts a reduction from the ufunc's identity where it has one and
    folds fewer than 8 contiguous terms left to right, so for K < 8 columns
    this gives its bytes for any input without a NaN (one with a NaN gives
    NaN, whose sign bit may differ).  For K >= 8 the fold stays sequential
    where numpy's sum turns pairwise.  Per-call dispatch over a few wide
    columns costs far less than numpy's reduction over many K-wide rows.
    """
    first = x[..., 0]
    out = first.copy() if ufunc.identity is None else ufunc(ufunc.identity, first)
    for k in range(1, x.shape[-1]):
        ufunc(out, x[..., k], out=out)
    return out


def _over_batch(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)`` of an (R, B, K) stack, byte for byte.

    numpy sums a strided batch axis sequentially, one (K,) slab per sample;
    a batch-major contiguous copy summed over its leading axis adds the same
    terms in the same order through one wide loop.  With K = 1 the batch
    axis is contiguous, and numpy sums it pairwise, so that case keeps
    numpy's own sum.
    """
    if x.shape[-1] == 1:
        return x.sum(axis=1)
    return np.ascontiguousarray(x.transpose(1, 0, 2)).sum(axis=0)


def _softmax_ce(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mean cross-entropy and d(loss)/d(logits), max-subtraction stabilized.

    ``logits`` is (R, B, K); ``labels`` is (B,) or (R, B).  The per-sample
    max and sum over the class axis run through `_over_classes`.
    """
    # in-place steps round exactly as the out-of-place expressions would
    probs = logits - _over_classes(np.maximum, logits)[..., None]
    np.exp(probs, out=probs)
    probs /= _over_classes(np.add, probs)[..., None]
    r, n = logits.shape[0], logits.shape[1]
    at_label = (np.arange(r)[:, None], np.arange(n), labels)
    losses = np.mean(-np.log(np.maximum(probs[at_label], 1e-300)), axis=-1)
    probs[at_label] -= 1.0
    probs /= n
    return losses, probs


def _transposed(matrices: np.ndarray) -> np.ndarray:
    return matrices.transpose(0, 2, 1)


class _Classifier(Problem):
    """Softmax cross-entropy over a linear head: logits = inputs @ W' + b.

    A subclass passes its parameter layout, a tuple of block shapes whose
    last two blocks are the head's W (num_classes x width, row-major) and
    b (num_classes), and supplies two hooks over the stacked views of the
    blocks before the head (its body):

    - `_head_inputs(body, features)`: the (R, n, width) head inputs, or
      the features themselves when the head reads them directly;
    - `_body_grad(body, w, features, inputs, dlogits)`: the gradient
      blocks of the body, in layout order.  It may overwrite ``inputs``.
    """

    requires_batch = True

    def __init__(self, num_features: int, num_classes: int, layout: tuple):
        if num_features < 1 or num_classes < 2:
            raise ValueError("need num_features >= 1 and num_classes >= 2")
        self.num_features = num_features
        self.num_classes = num_classes
        self._layout = layout
        self.dim = sum(math.prod(shape) for shape in layout)

    def _check_features(self, features: np.ndarray) -> None:
        if features.shape[-1] != self.num_features:
            raise ValueError(
                f"batch has {features.shape[-1]} features, "
                f"problem expects {self.num_features}"
            )

    def _check_eval(self, params, batch):
        super()._check_eval(params, batch)
        self._check_features(batch.features)
        if batch.labels.min() < 0 or batch.labels.max() >= self.num_classes:
            raise ValueError(f"batch labels must lie in [0, {self.num_classes})")

    def _unpack(self, params: np.ndarray) -> list[np.ndarray]:
        # (..., dim) -> one view into params per layout block, (..., *shape)
        lead, views, start = params.shape[:-1], [], 0
        for shape in self._layout:
            size = math.prod(shape)
            views.append(params[..., start : start + size].reshape(lead + shape))
            start += size
        return views

    def _forward(self, stack: np.ndarray, features: np.ndarray):
        *body, w, b = self._unpack(stack)
        inputs = self._head_inputs(body, features)
        logits = inputs @ _transposed(w)
        logits += b[:, None, :]
        return body, w, inputs, logits

    def _loss_grad(self, stack, batch):
        body, w, inputs, logits = self._forward(stack, batch.features)
        losses, dlogits = _softmax_ce(logits, batch.labels)
        # the head's gradient first: the body's backward pass may overwrite inputs
        head = [_transposed(dlogits) @ inputs, _over_batch(dlogits)]
        blocks = self._body_grad(body, w, batch.features, inputs, dlogits) + head
        r = len(losses)
        return losses, np.concatenate([g.reshape(r, -1) for g in blocks], axis=1)

    def predict(self, params: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Argmax labels per parameter row, checked as `loss_grad` checks."""
        self._check_params(params)
        self._check_features(features)
        logits = self._forward(params.reshape(-1, self.dim), features)[-1]
        labels = np.argmax(logits, axis=-1)
        return labels[0] if params.ndim == 1 else labels


class LogisticRegression(_Classifier):
    """Multinomial softmax regression.

    Parameter layout (documented, fixed): weight matrix W (num_classes x
    num_features) flattened row-major, then the bias vector (num_classes).
    """

    kind = "logreg"

    def __init__(self, num_features: int, num_classes: int):
        k, p = num_classes, num_features
        super().__init__(p, k, ((k, p), (k,)))

    def _head_inputs(self, body, features):
        return features

    def _body_grad(self, body, w, features, inputs, dlogits):
        return []

    def init_params(self, seed: int) -> np.ndarray:
        # uniform(-s, s) with s = 1/sqrt(fan_in) for weights and biases
        s = 1.0 / math.sqrt(self.num_features)
        u = rng.uniforms(rng.derive_key(seed, 0), self.dim)
        return s * (2.0 * u - 1.0)


class MLP1(_Classifier):
    """One hidden tanh layer, softmax cross-entropy output.

    Parameter layout (documented, fixed): W1 (hidden x num_features)
    row-major, b1 (hidden), W2 (num_classes x hidden) row-major,
    b2 (num_classes).
    """

    kind = "mlp1"

    def __init__(self, num_features: int, num_classes: int, hidden: int):
        if hidden < 1:
            raise ValueError("need hidden >= 1")
        self.hidden = hidden
        h, p, k = hidden, num_features, num_classes
        super().__init__(p, k, ((h, p), (h,), (k, h), (k,)))

    def _head_inputs(self, body, features):
        # tanh(features @ W1' + b1) per row, (R, n, h), in one buffer
        w1, b1 = body
        a1 = features @ _transposed(w1)
        a1 += b1[:, None, :]
        return np.tanh(a1, out=a1)

    def _body_grad(self, body, w, features, a1, dlogits):
        # dz1 = da1 * (1 - a1 * a1), computed in place over da1 and a1
        dz1 = dlogits @ w
        np.multiply(a1, a1, out=a1)
        np.subtract(1.0, a1, out=a1)
        dz1 *= a1
        return [_transposed(dz1) @ features, _over_batch(dz1)]

    def init_params(self, seed: int) -> np.ndarray:
        # uniform(-s, s) per layer with s = 1/sqrt(fan_in of that layer)
        s1 = 1.0 / math.sqrt(self.num_features)
        s2 = 1.0 / math.sqrt(self.hidden)
        u = rng.uniforms(rng.derive_key(seed, 0), self.dim)
        scaled = 2.0 * u - 1.0
        n1 = self.hidden * (self.num_features + 1)
        scaled[:n1] *= s1
        scaled[n1:] *= s2
        return scaled


_FD_STEP = 1e-6  # the h of `finite_diff_grad`


def finite_diff_grad(
    problem: Problem, params: np.ndarray, batch: Batch | None = None
) -> np.ndarray:
    """Central differences (f(x+h e_i) - f(x-h e_i)) / 2h with h = 1e-6.

    All 2*dim probes are rows of one stacked `loss_grad` call, whose losses
    alone are read; row r of a stack is the 1-D call on it, so each entry
    is the one a coordinate-at-a-time loop gives.  The probes take
    2*dim*dim floats.
    """
    params = np.asarray(params, dtype=np.float64)
    dim = params.shape[0]
    # each probe copies the row and sets one entry: params + h*I would turn
    # a -0.0 elsewhere in the row into +0.0
    probes = np.tile(params, (2 * dim, 1))
    i = np.arange(dim)
    probes[i, i] = params + _FD_STEP
    probes[dim + i, i] = params - _FD_STEP
    losses = problem.loss_grad(probes, batch)[0]
    return (losses[:dim] - losses[dim:]) / (2.0 * _FD_STEP)


def relative_error(a, b) -> float:
    """max_i |a_i - b_i| / max(|a_i|, |b_i|, 1): elementwise with a unit floor.

    Arrays of different shapes raise ValueError; a NaN on either side makes
    the result NaN, so it fails every comparison with a tolerance.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"cannot compare shapes {a.shape} and {b.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def spd_quadratic(seed: int, dim: int, cond: float) -> Quadratic:
    """Random SPD quadratic with eigenvalues geomspaced over [1/cond, 1].

    The eigenbasis is a seed-deterministic random rotation (QR of a square
    Gaussian matrix with the sign convention R_ii > 0); the right-hand side
    places the minimizer at a seed-deterministic unit-scale point.
    """
    if dim < 1 or cond < 1.0:
        raise ValueError("need dim >= 1 and cond >= 1")
    eig = np.geomspace(1.0 / cond, 1.0, dim)
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


def default_problems_for_gradcheck() -> Iterator[
    tuple[Problem, Iterable[tuple[np.ndarray, Batch | None]]]
]:
    """(problem, [(params, batch), ...]) covering all four kinds.

    Used by the gradient self-check: every analytic gradient is compared
    to the central-difference oracle at 20 random evaluation points.
    """
    quad = spd_quadratic(501, 6, 50.0)
    yield quad, [
        (rng.normals(rng.derive_key(502, i), quad.dim), None) for i in range(20)
    ]
    rosen = Rosenbrock2D()
    yield rosen, [
        (rng.normals(rng.derive_key(503, i), 2), None) for i in range(20)
    ]
    logreg = LogisticRegression(num_features=5, num_classes=3)
    yield logreg, [
        (
            logreg.init_params(600 + i),
            _random_batch(rng.derive_key(504, i), 8, 5, 3),
        )
        for i in range(20)
    ]
    mlp = MLP1(num_features=6, num_classes=3, hidden=8)
    yield mlp, [
        (
            mlp.init_params(700 + i),
            _random_batch(rng.derive_key(505, i), 8, 6, 3),
        )
        for i in range(20)
    ]
