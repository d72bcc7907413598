"""Self-checks and plain-Python reference step rules.

The ``ref_*_run`` oracles re-derive every update with scalar Python
floats in one explicit loop, `_scalar_run`, sharing no code with the
vectorized module.  They form a table: each oracle is one row, what it
squares into v, where its eps sits (inside v, in the denominator, or
both) and whether its decay is coupled.
They are the oracle side of every dual-route test: the fast path in
:mod:`adafamily.optim` must reproduce their trajectories bit for bit, as
both round each IEEE operation in the same order.  Two rows
(``ref_adam_eps_in_v_run``, ``ref_adabelief_eps_in_v_run``) are the
eps-inside-v counterparts of Adam and AdaBelief that the blend endpoints
mu=0 and mu=0.5 must match; they intentionally do NOT equal the standard
baselines, whose eps sits in the denominator.

``CHECKS`` is the one table of named invariant checks: each row is a name
and a call returning (passed, detail), in the order ``run_checks`` (the
CLI ``check`` subcommand) runs them and prints one line each.  The three
endpoint rows call `_endpoint_check` with the mu, oracle and label the
blend must match there.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import rng
from .harness import lr_scale_sequence
from .optim import (
    Algorithm,
    OptimizerConfig,
    init_state,
    normalization_factor,
    step,
)
from .problems import default_problems_for_gradcheck, finite_diff_grad, relative_error

Vector = Sequence[float]


def _scalar_run(
    name: str,
    squared: Callable[[float, float], float],
    eps_at: str,
    coupled: bool = False,
) -> Callable[..., list[list[float]]]:
    """The oracle ``ref_<name>_run`` for one row of the table.

    ``squared(g, m)`` is what the rule squares into v, given the gradient
    and the updated first moment.  ``eps_at`` is where its eps sits: ``"v"``
    adds it to v, ``"denominator"`` to sqrt(v_hat), ``"both"`` to each.
    Coupled decay adds lam * theta to the gradient; decoupled decay shrinks
    the stepped parameters.  The oracle returns the parameter vector after
    each step, every product and quotient rounded in `step`'s order.
    """

    def run(
        grads: Sequence[Vector],
        theta0: Vector,
        alpha: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        lr_scales: Sequence[float] | None = None,
    ) -> list[list[float]]:
        # an eps of 0.0 adds nothing, since neither v nor sqrt(v_hat) is -0.0
        v_eps = 0.0 if eps_at == "denominator" else eps
        den_eps = 0.0 if eps_at == "v" else eps
        d = len(theta0)
        m = [0.0] * d
        v = [0.0] * d
        theta = list(theta0)
        out = []
        for t, g in enumerate(grads, start=1):
            eta = alpha * (lr_scales[t - 1] if lr_scales is not None else 1.0)
            if coupled and weight_decay > 0.0:
                g = [gi + weight_decay * ti for gi, ti in zip(g, theta)]
            new = [0.0] * d
            for i in range(d):
                m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
                s = squared(g[i], m[i])
                v[i] = beta2 * v[i] + s * s * (1.0 - beta2) + v_eps
                m_hat = m[i] / (1.0 - beta1**t)
                v_hat = v[i] / (1.0 - beta2**t)
                new[i] = theta[i] - m_hat / (math.sqrt(v_hat) + den_eps) * eta
            if not coupled and weight_decay > 0.0:
                new = [tn - eta * weight_decay * to for tn, to in zip(new, theta)]
            theta = new
            out.append(theta)
        return out

    # reprs and parametrized test ids show the oracle's public name
    run.__name__ = run.__qualname__ = f"ref_{name}_run"
    return run


def ref_adafamily_run(mu: float, *args, **kwargs) -> list[list[float]]:
    """The blend at ``mu``: v squares c * ((1 - mu) g - mu m), eps inside v.

    Takes ``mu`` and then the arguments of every other oracle.
    """
    c = 2.0 * (1.0 - abs(mu - 0.5))
    oracle = _scalar_run("adafamily", lambda g, m: c * ((1.0 - mu) * g - mu * m), "v")
    return oracle(*args, **kwargs)


# the table: each oracle is one row, what it squares into v, where its eps
# sits and whether its decay is coupled
ref_adam_run = _scalar_run("adam", lambda g, m: g, "denominator", coupled=True)  # L2-style
ref_adamw_run = _scalar_run("adamw", lambda g, m: g, "denominator")
# AdaBelief's original form has eps in both places
ref_adabelief_run = _scalar_run("adabelief", lambda g, m: g - m, "both")
ref_adamomentum_run = _scalar_run("adamomentum", lambda g, m: m, "v")
# what mu = 0 and mu = 0.5 reduce to, not the standard Adam and AdaBelief
ref_adam_eps_in_v_run = _scalar_run("adam_eps_in_v", lambda g, m: g, "v")
ref_adabelief_eps_in_v_run = _scalar_run("adabelief_eps_in_v", lambda g, m: g - m, "v")


def trajectory(
    config: OptimizerConfig,
    grads: np.ndarray,
    theta0: np.ndarray,
    lr_scales: Sequence[float] | None = None,
) -> list[list[float]]:
    """Drive the vectorized step rule over a gradient sequence."""
    state = init_state(theta0.shape[0])
    params = theta0.astype(np.float64).copy()
    out = []
    for t, g in enumerate(grads):
        scale = lr_scales[t] if lr_scales is not None else 1.0
        params = step(state, params, g, config, scale)
        out.append(params.tolist())
    return out


# --------------------------------------------------------------------------
# named invariant checks (CLI `check` subcommand)
# --------------------------------------------------------------------------


def check_normalization_endpoints() -> tuple[bool, str]:
    ok = (
        normalization_factor(0.0) == 1.0
        and normalization_factor(1.0) == 1.0
        and normalization_factor(0.5) == 2.0
        and normalization_factor(0.25) == 1.5
    )
    return ok, "c(0)=c(1)=1, c(0.5)=2, c(0.25)=1.5"


def check_normalization_symmetry() -> tuple[bool, str]:
    mus = rng.uniforms(101, 1000)
    worst = 0.0
    for mu in mus:
        c = normalization_factor(float(mu))
        c_rev = normalization_factor(float(1.0 - mu))
        if not 1.0 <= c <= 2.0:
            return False, f"c({mu}) = {c} outside [1, 2]"
        worst = max(worst, abs(c - c_rev))
    return worst == 0.0, f"max |c(mu) - c(1-mu)| = {worst:g} over 1000 draws"


def _endpoint_check(mu: float, oracle: Callable, name: str) -> tuple[bool, str]:
    dim, steps = 32, 100
    theta0 = rng.normals(rng.derive_key(11, int(mu * 100)), dim)
    config = OptimizerConfig(algorithm=Algorithm.ADAFAMILY, mu=mu)
    keys = [rng.derive_key(12, s) for s in range(5)]
    streams = [rng.normals(key, steps * dim).reshape(steps, dim) for key in keys]
    fast = [trajectory(config, grads, theta0) for grads in streams]
    ref = [oracle(grads.tolist(), theta0.tolist()) for grads in streams]
    # bytes, not ==, which calls -0.0 and 0.0 equal
    if np.asarray(fast).tobytes() == np.asarray(ref).tobytes():
        return True, f"mu={mu} vs {name} oracle: bitwise equal"
    return False, f"mu={mu} vs {name} oracle: relative error {relative_error(fast, ref):.3e}"


def check_v_lower_bound() -> tuple[bool, str]:
    dim, steps = 8, 1000
    eps, beta2 = 1e-8, 0.999
    worst_margin = np.inf
    for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
        config = OptimizerConfig(algorithm=Algorithm.ADAFAMILY, mu=mu, epsilon=eps, beta2=beta2)
        state = init_state(dim)
        params = np.zeros(dim)
        grads = rng.normals(rng.derive_key(15, int(mu * 100)), steps * dim).reshape(steps, dim)
        for g in grads:
            params = step(state, params, g, config)
            bound = eps * (1.0 - beta2**state.t) / (1.0 - beta2) - 1e-15
            margin = float(np.min(state.v) - bound)
            worst_margin = min(worst_margin, margin)
            if not (margin >= 0.0 and np.all(state.v > 0.0)):
                return False, f"v bound violated at t={state.t}, mu={mu}"
    return True, f"v stayed above eps*(1-b2^t)/(1-b2); min margin {worst_margin:.3e}"


def check_determinism() -> tuple[bool, str]:
    dim, steps = 16, 50
    theta0 = rng.normals(16, dim)
    grads = rng.normals(17, steps * dim).reshape(steps, dim)
    for algorithm in Algorithm:
        mu = 0.25 if algorithm is Algorithm.ADAFAMILY else 0.0
        config = OptimizerConfig(algorithm=algorithm, mu=mu, weight_decay=1e-4)
        a = trajectory(config, grads, theta0)
        b = trajectory(config, grads, theta0)
        # bytes, not ==, which calls -0.0 and 0.0 equal
        if np.asarray(a).tobytes() != np.asarray(b).tobytes():
            return False, f"replay mismatch for {algorithm.value}"
    return True, "identical replays are bitwise identical for all five algorithms"


def check_state_size() -> tuple[bool, str]:
    # a fresh state belongs to no algorithm, so check the state a step leaves
    dim = 17
    for algorithm in Algorithm:
        state = init_state(dim)
        step(state, np.zeros(dim), rng.normals(18, dim), OptimizerConfig(algorithm=algorithm))
        arrays = [name for name, a in vars(state).items() if isinstance(a, np.ndarray)]
        reals = sum(getattr(state, name).size for name in arrays)
        if arrays != ["m", "v"] or reals != 2 * dim:
            return False, f"{algorithm.value} holds {arrays} with {reals} reals"
    return True, f"every algorithm stores exactly 2*d auxiliary reals (d={dim})"


def check_gradients() -> tuple[bool, str]:
    errors = []
    for problem, evals in default_problems_for_gradcheck():
        for params, batch in evals:
            _, analytic = problem.loss_grad(params, batch)
            errors.append(relative_error(analytic, finite_diff_grad(problem, params, batch)))
    # np.max, unlike max(), carries a NaN through to the verdict
    worst = np.max(errors)
    return worst < 1e-5, f"max analytic vs central-difference error {worst:.3e}"


def check_schedule() -> tuple[bool, str]:
    seq = lr_scale_sequence(((2, 0.5), (5, 0.2)), 8)
    return seq == [1.0, 1.0, 0.5, 0.5, 0.5, 0.1, 0.1, 0.1], f"realized scales {seq}"


CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("normalization-endpoints", check_normalization_endpoints),
    ("normalization-symmetry", check_normalization_symmetry),
    # the blend at mu against the oracle it reduces to there
    ("endpoint-adamomentum", partial(_endpoint_check, 1.0, ref_adamomentum_run, "AdaMomentum")),
    ("endpoint-adam-eps-in-v",
     partial(_endpoint_check, 0.0, ref_adam_eps_in_v_run, "eps-in-v Adam")),
    ("endpoint-adabelief-eps-in-v",
     partial(_endpoint_check, 0.5, ref_adabelief_eps_in_v_run, "eps-in-v AdaBelief")),
    ("v-lower-bound", check_v_lower_bound),
    ("determinism", check_determinism),
    ("state-size", check_state_size),
    ("gradients", check_gradients),
    ("schedule", check_schedule),
]


def run_checks(name_filter: str | None = None) -> bool:
    """Run the named checks (substring filter); True when all pass."""
    selected = [(n, f) for n, f in CHECKS if name_filter is None or name_filter in n]
    if not selected:
        print(f"no check matches filter {name_filter!r}")
        return False
    all_ok = True
    for name, fn in selected:
        ok, detail = fn()
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
