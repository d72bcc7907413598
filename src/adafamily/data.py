"""Deterministic dataset generation, splitting, batching.

All randomness flows through :mod:`adafamily.rng`, so every dataset,
split, and epoch shuffle is bitwise reproducible from its integer seeds
(within the scope of ``docs/determinism.md``).  Dataset and Batch are
plain immutable containers that check only structural consistency:
`gen_gaussian_blobs` returns finite features with every class present,
while `split` may legitimately return empty or class-incomplete subsets
(a test fraction of 0 is allowed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import rng


@dataclass(frozen=True)
class Batch:
    """A mini-batch: features (n, p) float64, labels (n,) int64.

    A stack of R batches of equal size, one per run, has features
    (R, n, p) and labels (R, n).
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim not in (2, 3):
            raise ValueError(
                f"features must be 2-D, or 3-D for a stack, got shape {self.features.shape}"
            )
        if self.labels.shape != self.features.shape[:-1]:
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"features shape {self.features.shape}"
            )
        if self.n < 1:
            raise ValueError("a batch needs at least one example")

    @property
    def n(self) -> int:
        return self.features.shape[-2]


@dataclass(frozen=True)
class Dataset:
    """Immutable labeled dataset with a fixed class count."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length does not match feature rows")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class BatchPlan:
    """How to cut a dataset into mini-batches, epoch after epoch."""

    batch_size: int
    shuffle_seed: int

    def __post_init__(self) -> None:
        if type(self.batch_size) is not int or self.batch_size < 1:
            raise ValueError(f"batch_size must be an integer >= 1, got {self.batch_size!r}")
        s = self.shuffle_seed
        if not rng.is_seed(s):
            raise ValueError(f"shuffle_seed must be an integer in [0, 2**64), got {s!r}")


def class_means(num_classes: int, dim: int) -> np.ndarray:
    """Deterministic blob centers: centered one-hot simplex vertices.

    Mean k is the centered one-hot vector e_k - 1/K, truncated to the
    first `dim` coordinates when dim < K and zero-padded when dim > K.
    All pairs of full vectors are sqrt(2) apart; truncation keeps them
    distinct as long as num_classes <= dim + 1.
    """
    if num_classes > dim + 1:
        raise ValueError(
            f"num_classes={num_classes} needs dim >= {num_classes - 1} "
            "for distinct simplex means"
        )
    eye = np.eye(num_classes, dtype=np.float64) - 1.0 / num_classes
    means = np.zeros((num_classes, dim))
    w = min(num_classes, dim)
    means[:, :w] = eye[:, :w]
    return means


def gen_gaussian_blobs(
    seed: int, n_per_class: int, dim: int, num_classes: int, spread: float
) -> Dataset:
    """Isotropic Gaussian clusters around simplex-vertex means."""
    if n_per_class < 1 or dim < 1 or num_classes < 1:
        raise ValueError("n_per_class, dim and num_classes must all be >= 1")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if spread <= 0.0:
        raise ValueError(f"spread must be > 0, got {spread}")
    means = class_means(num_classes, dim)
    noise = rng.normals(rng.derive_key(seed, 1), num_classes * n_per_class * dim)
    noise = noise.reshape(num_classes, n_per_class, dim)
    features = (means[:, None, :] + spread * noise).reshape(-1, dim)
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    return Dataset(features=features, labels=labels, num_classes=num_classes)


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified seed-deterministic split into (train, test).

    Per class, floor(test_fraction * count) examples go to the test side,
    so a fraction of 0 gives an empty test set; both subsets keep the
    original row order.  The halves are disjoint and together exhaust the
    dataset.
    """
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError(f"test_fraction must lie in [0, 1], got {test_fraction}")
    test_mask = np.zeros(dataset.n, dtype=bool)
    for k in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == k)
        take = math.floor(test_fraction * idx.size + 1e-12)
        perm = rng.permutation(rng.derive_key(seed, k), idx.size)
        test_mask[idx[perm[:take]]] = True
    def _subset(mask: np.ndarray) -> Dataset:
        return Dataset(
            features=dataset.features[mask].copy(),
            labels=dataset.labels[mask].copy(),
            num_classes=dataset.num_classes,
        )
    return _subset(~test_mask), _subset(test_mask)


def batches(
    dataset: Dataset, plan: BatchPlan | Sequence[BatchPlan], epoch_index: int
) -> Iterator[Batch]:
    """Mini-batches for one epoch; order fixed by (shuffle_seed, epoch_index).

    Every example appears exactly once; a final short batch is kept.
    Given a sequence of R plans that share batch_size, yields stacks of R
    batches whose row r is the batch plan r gives on its own; each
    distinct shuffle seed's permutation is drawn once, and each stack is
    one gather.
    """
    plans = [plan] if isinstance(plan, BatchPlan) else list(plan)
    if epoch_index < 0:
        raise ValueError(f"epoch_index must be >= 0, got {epoch_index}")
    if dataset.n < 1:
        raise ValueError("cannot batch an empty dataset")
    if not plans:
        raise ValueError("need at least one batch plan")
    size = plans[0].batch_size
    if any(p.batch_size != size for p in plans):
        raise ValueError("stacked batch plans must share batch_size")
    if size > dataset.n:
        raise ValueError(f"batch_size {size} exceeds dataset size {dataset.n}")
    perms: dict[int, np.ndarray] = {}
    for p in plans:
        if p.shuffle_seed not in perms:
            key = rng.derive_key(p.shuffle_seed, epoch_index)
            perms[p.shuffle_seed] = rng.permutation(key, dataset.n)
    order = np.stack([perms[p.shuffle_seed] for p in plans])
    if isinstance(plan, BatchPlan):
        order = order[0]
    for start in range(0, dataset.n, size):
        sel = order[..., start : start + size]
        yield Batch(features=dataset.features[sel], labels=dataset.labels[sel])
