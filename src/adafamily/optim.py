"""Adam-family step rules on flat float64 parameter buffers.

Every algorithm here is one rule, ``step``.  The algorithms differ only in
what gets squared into the preconditioner v and where eps sits:

    m_t = beta1 * m_{t-1} + (1 - beta1) * g_t
    s_t = c * (p * g_t - q * m_t)
    v_t = beta2 * v_{t-1} + (1 - beta2) * s_t**2 + eps_v
    theta_t = theta_{t-1} - lr * m_hat / (sqrt(v_hat) + eps_den)

with m_hat, v_hat the bias-corrected moments and one row of constants per
algorithm:

    algorithm      p       q    c       eps_v  eps_den
    AdaFamily      1 - mu  mu   c(mu)   eps    0
    Adam, AdamW    1       0    1       0      eps
    AdaBelief      1       1    1       eps    eps
    AdaMomentum    0       1    1       eps    0

with c(mu) = 2 * (1 - |mu - 0.5|).  Each step computes its row from the
config, c included, so the state holds only m, v and t.  For AdaFamily eps accumulates inside v every step, so
v_t >= eps * (1 - beta2**t) / (1 - beta2) elementwise and the bare
sqrt(v_hat) denominator can never vanish.  The blend endpoints recover
familiar preconditioners: mu=0 squares the raw gradient, mu=0.5 the
gradient-minus-momentum residual, and mu=1 the momentum itself (bitwise
AdaMomentum).  The baselines keep their original eps placement.  Their
extra terms (multiplying by 1, subtracting 0 * m, adding 0) are exact in
IEEE arithmetic, so each baseline computes bit for bit what its textbook
form does.

``step`` mutates the state's m/v buffers in place (the state never
allocates beyond those two vectors) and returns a new parameter array.  A
state must be driven by one thread at a time; distinct states are fully
independent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Algorithm(enum.Enum):
    ADAFAMILY = "AdaFamily"
    ADAM = "Adam"
    ADAMW = "AdamW"
    ADABELIEF = "AdaBelief"
    ADAMOMENTUM = "AdaMomentum"


class BufferMismatchError(ValueError):
    """Parameter, gradient, and state buffers disagree in length."""


class NonFiniteGradientError(ValueError):
    """A gradient entry is NaN or infinite; the message names its index."""


def normalization_factor(mu: float) -> float:
    """Triangle normalization 2*(1 - |mu - 0.5|), keeping the blended
    signal's scale comparable across mu; equals 1 at the endpoints and 2 at
    mu = 0.5."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    return 2.0 * (1.0 - abs(mu - 0.5))


@dataclass(frozen=True)
class OptimizerConfig:
    """Scalar hyperparameters of one optimizer instance.

    ``mu`` is only meaningful for Algorithm.ADAFAMILY.  The algorithm fixes
    where weight decay goes: Adam adds it to the gradient (coupled, L2
    style); every other algorithm decays decoupled, AdamW style.  Invalid
    values are rejected at construction.
    """

    algorithm: Algorithm
    mu: float = 0.0
    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mu", "alpha", "beta1", "beta2", "epsilon", "weight_decay"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        # -0.0 passes the range test but would label a row apart from 0.0
        if not 0.0 <= self.mu <= 1.0 or math.copysign(1.0, self.mu) < 0.0:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {b}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")

    @property
    def decay_mode(self) -> str:
        """Where weight decay goes: 'none' without it, else the algorithm's
        placement ('coupled' for Adam, 'decoupled' for the rest)."""
        return _placement(self.algorithm) if self.weight_decay > 0.0 else "none"

    @property
    def label(self) -> str:
        """Row label for result tables, e.g. 'AdamW' or 'AdaFamily(0.25)'."""
        if self.algorithm is Algorithm.ADAFAMILY:
            return f"AdaFamily({float(self.mu)})"
        return self.algorithm.value

    def to_dict(self) -> dict:
        return {**vars(self), "algorithm": self.algorithm.value, "decay_mode": self.decay_mode}

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerConfig":
        """Inverse of to_dict: each key but decay_mode is a field.  A stored
        decay_mode must be the derived one or, with weight_decay 0, the
        algorithm's placement; it may be absent."""
        fields = {**d, "algorithm": Algorithm(d["algorithm"])}
        fields.pop("decay_mode", None)
        config = cls(**fields)
        stored = d.get("decay_mode", config.decay_mode)
        if stored not in (config.decay_mode, _placement(config.algorithm)):
            raise ValueError(
                f"decay_mode {stored!r} does not fit {config.algorithm.value} with "
                f"weight_decay={config.weight_decay}, which decays {config.decay_mode!r}"
            )
        return config


def _placement(algorithm: Algorithm) -> str:
    return "coupled" if algorithm is Algorithm.ADAM else "decoupled"


@dataclass
class OptimizerState:
    """First moment m, preconditioner v and step counter t.

    m and v are the only vector storage any algorithm here needs; both have
    the parameter buffer's length for the lifetime of the state.  `step`
    computes every constant, c included, from the config it is given.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @property
    def dim(self) -> int:
        return self.m.shape[0]


def init_state(dim: int) -> OptimizerState:
    """Zeroed state for a parameter buffer of length ``dim``."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return OptimizerState(m=np.zeros(dim, dtype=np.float64), v=np.zeros(dim, dtype=np.float64))


def _rule_constants(config: OptimizerConfig) -> tuple[float, float, float, float, float]:
    """(p, q, c, eps_v, eps_den) of the configured algorithm's row in the rule."""
    eps, mu = config.epsilon, config.mu
    if config.algorithm is Algorithm.ADAFAMILY:
        return 1.0 - mu, mu, normalization_factor(mu), eps, 0.0
    if config.algorithm is Algorithm.ADABELIEF:
        return 1.0, 1.0, 1.0, eps, eps
    if config.algorithm is Algorithm.ADAMOMENTUM:
        return 0.0, 1.0, 1.0, eps, 0.0
    return 1.0, 0.0, 1.0, 0.0, eps  # Adam, AdamW


def step(
    state: OptimizerState,
    params: np.ndarray,
    grad: np.ndarray,
    config: OptimizerConfig,
    lr_scale: float = 1.0,
) -> np.ndarray:
    """One update of the configured algorithm; returns new parameters and
    mutates the state's m, v and t in place.

    A rejected call raises before any state changes.  It is rejected for
    mismatched shapes, for a non-finite gradient entry (the error names the
    first one's index), and for an lr_scale that is not finite and > 0
    (NaN and inf included).  Adam's coupled decay adds
    weight_decay * params to the gradient; every other algorithm's
    decoupled decay subtracts lr_scale * alpha * weight_decay * params
    (pre-update) from the result.
    """
    if params.shape != (state.dim,) or grad.shape != (state.dim,):
        raise BufferMismatchError(
            f"state dim {state.dim}, params shape {params.shape}, grad shape {grad.shape}"
        )
    # a finite sum implies finite entries; the exact scan runs only when the
    # sum is not finite, which finite entries can also give by overflowing
    if not math.isfinite(np.add.reduce(grad)):
        bad = np.flatnonzero(~np.isfinite(grad))
        if bad.size:
            idx = int(bad[0])
            raise NonFiniteGradientError(
                f"non-finite gradient at index {idx} ({float(grad[idx])})"
            )
    if not 0.0 < lr_scale < math.inf:
        raise ValueError(f"lr_scale must be finite and > 0, got {lr_scale}")
    p, q, c, eps_v, eps_den = _rule_constants(config)
    b1, b2 = config.beta1, config.beta2
    lr = lr_scale * config.alpha
    state.t += 1
    t = state.t
    coupled = config.algorithm is Algorithm.ADAM
    if coupled and config.weight_decay > 0.0:
        grad = grad + config.weight_decay * params
    # each in-place operation below rounds exactly as the textbook
    # expression it replaces; constants are never folded across operations
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grad
    s = p * grad
    s -= q * m
    s *= c
    np.square(s, out=s)
    s *= 1.0 - b2
    v *= b2
    v += s
    v += eps_v
    den = np.divide(v, 1.0 - b2**t, out=s)
    np.sqrt(den, out=den)
    den += eps_den
    update = m / (1.0 - b1**t)
    update /= den
    update *= lr
    new_params = params - update
    if not coupled and config.weight_decay > 0.0:
        new_params -= (lr * config.weight_decay) * params
    return new_params
