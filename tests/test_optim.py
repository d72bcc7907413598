"""Tests for the optimizer step rules.

Every trajectory assertion runs twice: once through the vectorized module
and once through the scalar reference loops in adafamily.checks, which
share no code with it.
"""

import dataclasses
import functools
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import bitwise

from adafamily import rng
from adafamily.checks import (
    ref_adabelief_eps_in_v_run,
    ref_adabelief_run,
    ref_adafamily_run,
    ref_adam_eps_in_v_run,
    ref_adam_run,
    ref_adamomentum_run,
    ref_adamw_run,
    trajectory,
)
from adafamily.optim import (
    Algorithm,
    NonFiniteGradientError,
    OptimizerConfig,
    init_state,
    normalization_factor,
    step,
)
from adafamily.problems import relative_error

ROOT = Path(__file__).resolve().parent.parent
GRID_MUS = [0.0, 0.25, 0.5, 0.75, 1.0]


def _af(mu, **kw):
    return OptimizerConfig(algorithm=Algorithm.ADAFAMILY, mu=mu, **kw)


# -------------------------------------------------------------------------
# normalization factor
# -------------------------------------------------------------------------


def test_normalization_factor_values():
    # c = 2*(1 - |mu - 0.5|): 1 at the ends, 2 at the midpoint
    assert normalization_factor(0.0) == 1.0
    assert normalization_factor(1.0) == 1.0
    assert normalization_factor(0.5) == 2.0
    assert normalization_factor(0.25) == 1.5
    assert normalization_factor(0.75) == 1.5


def test_normalization_factor_symmetry_and_range():
    for mu in rng.uniforms(303, 500):
        c = normalization_factor(float(mu))
        assert 1.0 <= c <= 2.0
        assert c == normalization_factor(float(1.0 - mu))


def test_normalization_factor_rejects_out_of_range():
    with pytest.raises(ValueError):
        normalization_factor(-0.01)
    with pytest.raises(ValueError):
        normalization_factor(1.01)


def test_init_state_refuses_an_empty_buffer():
    with pytest.raises(ValueError, match="^dim must be >= 1, got 0$"):
        init_state(0)


# -------------------------------------------------------------------------
# single hand-unrolled steps
# -------------------------------------------------------------------------


def test_one_step_mu0():
    # mu=0, c=1, g=1, theta0=0, defaults:
    #   m1 = 0.1, s = 1, v1 = 0.001*1 + 1e-8 = 0.00100001
    #   m_hat = 1, v_hat = 0.00100001/0.001 = 1.00001
    #   theta1 = -1e-3 / sqrt(1.00001)
    cfg = _af(0.0)
    st = init_state(1)
    p = step(st, np.array([0.0]), np.array([1.0]), cfg)
    assert st.t == 1
    assert st.v[0] == pytest.approx(1.00001e-3, rel=1e-12)
    assert p[0] == pytest.approx(-1e-3 / np.sqrt(1.00001), rel=1e-12)


def test_one_step_mu_half():
    # mu=0.5, c=2, g=1, theta0=0:
    #   m1 = 0.1, s = 2*(0.5*1 - 0.5*0.1) = 0.9
    #   v1 = 0.001*0.81 + 1e-8 = 8.1001e-4, v_hat = 0.81001
    #   theta1 = -1e-3 / sqrt(0.81001) ~ -1.1111e-3
    cfg = _af(0.5)
    st = init_state(1)
    p = step(st, np.array([0.0]), np.array([1.0]), cfg)
    assert st.v[0] == pytest.approx(8.1001e-4, rel=1e-12)
    assert p[0] == pytest.approx(-1e-3 / np.sqrt(0.81001), rel=1e-12)


def test_one_step_mu1_zero_gradient():
    # mu=1: s = -m = 0 when g=0, v1 = eps exactly, m_hat = 0, so theta
    # does not move and the bare-sqrt denominator stays finite.
    cfg = _af(1.0)
    st = init_state(1)
    p = step(st, np.array([0.0]), np.array([0.0]), cfg)
    assert p[0] == 0.0
    assert st.v[0] == 1e-8


def test_one_step_adam():
    # g=1: m_hat = v_hat = 1, theta1 = -alpha/(1 + eps) exactly
    cfg = OptimizerConfig(algorithm=Algorithm.ADAM)
    st = init_state(1)
    p = step(st, np.array([0.0]), np.array([1.0]), cfg)
    assert p[0] == -1e-3 / (1.0 + 1e-8)


def test_one_step_adam_coupled_decay():
    # lam=0.1, theta0=1, g=1: effective gradient 1.1 enters both moments
    cfg = OptimizerConfig(algorithm=Algorithm.ADAM, weight_decay=0.1)
    st = init_state(1)
    p = step(st, np.array([1.0]), np.array([1.0]), cfg)
    assert p[0] == pytest.approx(1.0 - 1e-3 * 1.1 / (1.1 + 1e-8), rel=1e-12)


def test_one_step_adamw_pure_decay():
    # g=0 keeps both moments at zero, so the whole move is the decoupled
    # decay term: theta1 = 1 - alpha*lam*theta0 = 0.9999
    cfg = OptimizerConfig(algorithm=Algorithm.ADAMW, weight_decay=0.1)
    st = init_state(1)
    p = step(st, np.array([1.0]), np.array([0.0]), cfg)
    assert p[0] == 1.0 - 1e-3 * 0.1


def test_decoupled_decay_uses_pre_update_params():
    # decay must subtract lr*lam*theta_{t-1}, not lr*lam*theta_t
    cfg = OptimizerConfig(algorithm=Algorithm.ADAMW, weight_decay=0.5)
    st = init_state(1)
    p = step(st, np.array([2.0]), np.array([1.0]), cfg)
    grad_move = 1e-3 / (1.0 + 1e-8)
    assert p[0] == pytest.approx(2.0 - grad_move - 1e-3 * 0.5 * 2.0, rel=1e-12)


def test_frozen_three_step_mu025_trajectory():
    # scalar-oracle values for grads (1.0, -0.5, 0.25) from theta0=0
    cfg = _af(0.25)
    grads = np.array([[1.0], [-0.5], [0.25]])
    got = trajectory(cfg, grads, np.array([0.0]))
    expected = [-0.0009195363423040361, -0.0011613642925902793, -0.0014713493421635332]
    for (g,), e in zip(got, expected):
        assert g == pytest.approx(e, rel=1e-12)


def test_frozen_adam_coupled_trajectory():
    cfg = OptimizerConfig(algorithm=Algorithm.ADAM, weight_decay=0.01)
    grads = np.ones((3, 1))
    got = trajectory(cfg, grads, np.array([0.5]))
    expected = [0.49900000000995026, 0.49800000027927405, 0.49700000098024627]
    for (g,), e in zip(got, expected):
        assert g == pytest.approx(e, rel=1e-12)


# -------------------------------------------------------------------------
# dual-route trajectories against the scalar loops
# -------------------------------------------------------------------------


def _random_run(key, steps=60, dim=8):
    theta0 = rng.normals(rng.derive_key(key, 0), dim)
    grads = rng.normals(rng.derive_key(key, 1), steps * dim).reshape(steps, dim)
    return theta0, grads


@pytest.mark.parametrize("mu", GRID_MUS + [0.1, 0.37, 0.9])
def test_adafamily_matches_scalar_loop(mu):
    theta0, grads = _random_run(1000 + int(mu * 100))
    cfg = _af(mu, weight_decay=1e-4)
    fast = trajectory(cfg, grads, theta0)
    ref = ref_adafamily_run(mu, grads.tolist(), theta0.tolist(), weight_decay=1e-4)
    assert bitwise(fast) == bitwise(ref)


@pytest.mark.parametrize(
    "algorithm,oracle,kw",
    [
        (Algorithm.ADAM, ref_adam_run, dict(weight_decay=1e-4)),
        (Algorithm.ADAMW, ref_adamw_run, dict(weight_decay=1e-4)),
        (Algorithm.ADABELIEF, ref_adabelief_run, dict(weight_decay=1e-4)),
        (Algorithm.ADAMOMENTUM, ref_adamomentum_run, dict(weight_decay=1e-4)),
        (Algorithm.ADAM, ref_adam_run, dict()),
        (Algorithm.ADAMW, ref_adamw_run, dict()),
        (Algorithm.ADABELIEF, ref_adabelief_run, dict()),
        (Algorithm.ADAMOMENTUM, ref_adamomentum_run, dict()),
    ],
)
def test_baselines_match_scalar_loops(algorithm, oracle, kw):
    theta0, grads = _random_run(2002 if kw else 2000)
    cfg = OptimizerConfig(algorithm=algorithm, **kw)
    fast = trajectory(cfg, grads, theta0)
    ref = oracle(grads.tolist(), theta0.tolist(), weight_decay=kw.get("weight_decay", 0.0))
    assert bitwise(fast) == bitwise(ref)


def test_lr_scale_enters_both_gradient_move_and_decay():
    theta0, grads = _random_run(47, steps=20)
    scales = [1.0] * 7 + [0.5] * 13
    cfg = _af(0.75, weight_decay=1e-2)
    fast = trajectory(cfg, grads, theta0, lr_scales=scales)
    ref = ref_adafamily_run(
        0.75, grads.tolist(), theta0.tolist(), weight_decay=1e-2, lr_scales=scales
    )
    assert bitwise(fast) == bitwise(ref)


_ORACLES = {
    Algorithm.ADAM: ref_adam_run,
    Algorithm.ADAMW: ref_adamw_run,
    Algorithm.ADABELIEF: ref_adabelief_run,
    Algorithm.ADAMOMENTUM: ref_adamomentum_run,
}


def _fuzz_case(key):
    """A seeded config over the valid ranges, a three-phase lr schedule and
    a gradient stream whose columns span 2**-160 .. 2**160, with a zero, a
    signed-zero and a smallest-subnormal column."""
    steps, dim = 24, 12
    u = [float(x) for x in rng.uniforms(rng.derive_key(key, 0), 9)]
    algorithm = list(Algorithm)[int(u[0] * len(Algorithm))]
    config = OptimizerConfig(
        algorithm=algorithm,
        mu=u[1] if algorithm is Algorithm.ADAFAMILY else 0.0,
        alpha=10.0 ** -(1.0 + 4.0 * u[2]),
        beta1=0.9 * u[3],
        beta2=0.9999 * u[4],
        epsilon=10.0 ** -(2.0 + 13.0 * u[5]),
        weight_decay=0.3 * u[6] if u[7] < 0.7 else 0.0,
    )
    scales = [1.0] * 8 + [0.5 * u[8]] * 8 + [0.05 * u[8]] * 8
    theta0 = rng.normals(rng.derive_key(key, 1), dim)
    grads = rng.normals(rng.derive_key(key, 2), steps * dim).reshape(steps, dim)
    exponents = (rng.random_u64(rng.derive_key(key, 3), dim) % 321).astype(np.int64) - 160
    grads = np.ldexp(grads, exponents)  # exact, unlike a multiply by 2.0**e
    grads[:, 0] = 0.0
    grads[:, 1] = np.copysign(0.0, grads[:, 1])
    grads[:, 2] = np.copysign(5e-324, grads[:, 2])
    theta0[1] = -0.0
    return config, theta0, grads, scales


def test_step_equals_its_oracle_bitwise_on_random_configs():
    for key in range(300):
        config, theta0, grads, scales = _fuzz_case(key)
        fast = trajectory(config, grads, theta0, lr_scales=scales)
        kw = dict(
            alpha=config.alpha, beta1=config.beta1, beta2=config.beta2,
            eps=config.epsilon, weight_decay=config.weight_decay, lr_scales=scales,
        )
        if config.algorithm is Algorithm.ADAFAMILY:
            ref = ref_adafamily_run(config.mu, grads.tolist(), theta0.tolist(), **kw)
        else:
            ref = _ORACLES[config.algorithm](grads.tolist(), theta0.tolist(), **kw)
        assert bitwise(fast) == bitwise(ref), f"key {key}: {config}"


@pytest.mark.parametrize(
    "setting", ["OPENBLAS_CORETYPE=SandyBridge", "NPY_DISABLE_CPU_FEATURES=X86_V4"]
)
def test_step_equals_its_oracle_bitwise_under_emulated_kernels(setting):
    # `+ - * / sqrt` round alike on every kernel numpy and BLAS may pick,
    # so the step rule is portable although the inputs of training are not
    name, value = setting.split("=")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{name: value})
    test = "tests/test_optim.py::test_step_equals_its_oracle_bitwise_on_random_configs"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# each oracle's float64 trajectories, hashed, so an oracle edit that
# `step` follows as well still shows; these 30-step streams seldom keep a
# one-ULP change to an update, which the dual-route and fuzz tests catch
_ORACLE_DIGESTS = {
    "adafamily-mu0.0": "bc22ae02a147dbb12d2011ca65ff9621c07a5c2e608d44bf58f0824805252332",
    "adafamily-mu0.25": "7ff81bb4ecdf4e84a9881030ed52a6ae3c90cfea610e6f07dd3e32420530b086",
    "adafamily-mu0.5": "091d72fe4b714725203c1cb5ff8ee86eae077d7ef1daab7b8d4bbd3709225b37",
    "adafamily-mu0.75": "a99ea38c8abd27a3cd64d0a46e42d4d2c65916a4db24aafe7e4e905853ccd64d",
    "adafamily-mu1.0": "024148ff69949e80a9114861a6c305be32f5ff7149c1a7e51b4f303a2b2e1a37",
    "adam": "3b5f2ccdb17a8d05b2d777a26cd15ad794ef11ce49d380b614282d4bf477bdf1",
    "adamw": "b2dd5c052c6d015903dc9d0d382e34aa3fc1bdbadaef9d5f09a4defadd02596d",
    "adabelief": "67cee4bc3ee2e9a8367464272cd41eb56fed7d84e81e50e43899f48c1987eee1",
    # mu = 1 squares -m, so the blend's oracle is AdaMomentum's bit for bit
    "adamomentum": "024148ff69949e80a9114861a6c305be32f5ff7149c1a7e51b4f303a2b2e1a37",
    "adam-eps-in-v": "c187043f82903796c32490408c18b62bea3a35964dbed091a4fbdfff861a3655",
    "adabelief-eps-in-v": "86651b1066969db6a692b21825a91720f15bee370288fc20b4d4cdbd1bd3ded6",
}

_FROZEN_ORACLES = [
    *((f"adafamily-mu{mu}", functools.partial(ref_adafamily_run, mu), True) for mu in GRID_MUS),
    ("adam", ref_adam_run, True),
    ("adamw", ref_adamw_run, True),
    ("adabelief", ref_adabelief_run, True),
    ("adamomentum", ref_adamomentum_run, True),
    ("adam-eps-in-v", ref_adam_eps_in_v_run, False),
    ("adabelief-eps-in-v", ref_adabelief_eps_in_v_run, False),
]


@pytest.mark.parametrize(
    "name,oracle,takes_decay", _FROZEN_ORACLES, ids=[n for n, _, _ in _FROZEN_ORACLES]
)
def test_oracle_trajectories_are_frozen(name, oracle, takes_decay):
    # columns scaled 1e-6 .. 1e5, and a last column of signed zero
    # gradients from a -0.0 start
    theta0, grads = _random_run(4000, steps=30, dim=7)
    grads *= [1e-6, 1e-3, 1.0, 1e2, 1e5, 1.0, 1.0]
    grads[:, 6] = np.copysign(0.0, grads[:, 6])
    theta0[6] = -0.0
    variants = [{}]
    if takes_decay:
        schedule = [1.0] * 10 + [0.5] * 10 + [0.1] * 10
        variants = [
            dict(weight_decay=lam, lr_scales=scales)
            for lam in (0.0, 1e-4, 0.1)
            for scales in (None, schedule)
        ]
    digest = hashlib.sha256()
    for kw in variants:
        run = oracle(grads.tolist(), theta0.tolist(), **kw)
        digest.update(np.array(run, dtype="<f8").tobytes())
    assert digest.hexdigest() == _ORACLE_DIGESTS[name]


# -------------------------------------------------------------------------
# endpoint identities
# -------------------------------------------------------------------------


def test_mu1_is_bitwise_adamomentum():
    # at mu=1 the blended term is c*(-m) with c=1; squaring removes the
    # sign, so every intermediate equals AdaMomentum's bit for bit
    theta0, grads = _random_run(3001, steps=100, dim=16)
    a = trajectory(_af(1.0), grads, theta0)
    b = trajectory(OptimizerConfig(algorithm=Algorithm.ADAMOMENTUM), grads, theta0)
    assert bitwise(a) == bitwise(b)


def test_mu0_matches_eps_in_v_adam():
    theta0, grads = _random_run(3002, steps=100, dim=16)
    fast = trajectory(_af(0.0), grads, theta0)
    ref = ref_adam_eps_in_v_run(grads.tolist(), theta0.tolist())
    assert bitwise(fast) == bitwise(ref)


def test_mu_half_matches_eps_in_v_adabelief():
    # c=2 and the 0.5 factors cancel exactly: s = 2*(g/2 - m/2) = g - m
    theta0, grads = _random_run(3003, steps=100, dim=16)
    fast = trajectory(_af(0.5), grads, theta0)
    ref = ref_adabelief_eps_in_v_run(grads.tolist(), theta0.tolist())
    assert bitwise(fast) == bitwise(ref)


def test_mu0_is_not_standard_adam():
    # the endpoint moves eps inside v and drops it from the denominator;
    # it must stay distinguishable from textbook Adam
    theta0, grads = _random_run(3004, steps=100, dim=16)
    fast = trajectory(_af(0.0), grads, theta0)
    ref = ref_adam_run(grads.tolist(), theta0.tolist())
    assert relative_error(fast, ref) > 1e-9


def test_mu_half_is_not_standard_adabelief():
    # the two differ only by the denominator eps, so a long constant-
    # gradient run (which collapses v toward its eps floor) shows the
    # gap most clearly: ~9e-8 here, where the matching oracle is bitwise
    grads = np.ones((500, 1))
    fast = trajectory(_af(0.5), grads, np.zeros(1))
    ref = ref_adabelief_run(grads.tolist(), [0.0])
    assert relative_error(fast, ref) > 1e-8


def test_adamw_at_zero_decay_is_bitwise_adam():
    theta0, grads = _random_run(3006, steps=50)
    a = trajectory(OptimizerConfig(algorithm=Algorithm.ADAM), grads, theta0)
    b = trajectory(OptimizerConfig(algorithm=Algorithm.ADAMW), grads, theta0)
    assert bitwise(a) == bitwise(b)


# -------------------------------------------------------------------------
# conditioning of v
# -------------------------------------------------------------------------


@pytest.mark.parametrize("mu", GRID_MUS)
def test_v_lower_bound(mu):
    # v_t >= eps * (1 - beta2^t) / (1 - beta2) - 1e-15 for all t, and v > 0
    cfg = _af(mu)
    st = init_state(4)
    params = np.zeros(4)
    grads = rng.normals(rng.derive_key(88, int(mu * 100)), 1000 * 4).reshape(1000, 4)
    for g in grads:
        params = step(st, params, g, cfg)
        bound = 1e-8 * (1.0 - 0.999**st.t) / (1.0 - 0.999) - 1e-15
        assert np.all(st.v > 0.0)
        assert float(np.min(st.v)) >= bound


def test_v_bound_with_zero_gradients():
    # the bound is tight when every gradient is zero: v_t is exactly the
    # eps accumulation sum_{k<t} beta2^k * eps
    cfg = _af(0.5)
    st = init_state(2)
    params = np.zeros(2)
    for t in range(1, 51):
        params = step(st, params, np.zeros(2), cfg)
        exact = 1e-8 * (1.0 - 0.999**t) / (1.0 - 0.999)
        assert st.v[0] == pytest.approx(exact, rel=1e-12)


# -------------------------------------------------------------------------
# determinism
# -------------------------------------------------------------------------


def test_replay_is_bitwise_identical():
    theta0, grads = _random_run(4001)
    for algorithm in Algorithm:
        mu = 0.25 if algorithm is Algorithm.ADAFAMILY else 0.0
        cfg = OptimizerConfig(algorithm=algorithm, mu=mu)
        assert bitwise(trajectory(cfg, grads, theta0)) == bitwise(trajectory(cfg, grads, theta0))


# -------------------------------------------------------------------------
# errors and validation
# -------------------------------------------------------------------------


def test_shape_mismatch_raises():
    cfg = _af(0.5)
    st = init_state(3)
    with pytest.raises(ValueError, match="state shape"):
        step(st, np.zeros(4), np.zeros(4), cfg)
    with pytest.raises(ValueError, match="state shape"):
        step(st, np.zeros(3), np.zeros(2), cfg)


def test_nonfinite_gradient_names_index():
    cfg = _af(0.5)
    st = init_state(3)
    g = np.array([0.0, np.nan, 0.0])
    with pytest.raises(NonFiniteGradientError, match=r"index 1"):
        step(st, np.zeros(3), g, cfg)
    g = np.array([0.0, 0.0, np.inf])
    with pytest.raises(NonFiniteGradientError, match=r"index 2"):
        step(st, np.zeros(3), g, cfg)
    # state must be untouched by the rejected call
    assert st.t == 0 and not np.any(st.v)


def test_nonpositive_lr_scale_rejected():
    cfg = _af(0.5)
    st = init_state(1)
    with pytest.raises(ValueError):
        step(st, np.zeros(1), np.zeros(1), cfg, lr_scale=0.0)
    with pytest.raises(ValueError):
        step(st, np.zeros(1), np.zeros(1), cfg, lr_scale=-1.0)


@pytest.mark.parametrize(
    "bad,index",
    [
        ([0.5, np.nan, 1.0, -2.0], 1),
        ([0.5, 1.0, np.inf, -2.0], 2),
        ([-np.inf, 1.0, 0.5, -2.0], 0),
        ([0.5, np.inf, -np.inf, -2.0], 1),  # the sum is NaN, not an infinity
    ],
)
def test_nonfinite_gradient_raises_before_touching_stepped_state(bad, index):
    cfg = _af(0.25)
    st = init_state(4)
    params = step(st, np.ones(4), np.array([0.5, -1.0, 2.0, 0.25]), cfg)
    m, v = st.m.copy(), st.v.copy()
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteGradientError, match=rf"at index {index} "):
            step(st, params, np.array(bad), cfg)
    assert st.t == 1
    assert st.m.tobytes() == m.tobytes() and st.v.tobytes() == v.tobytes()


@pytest.mark.parametrize(
    "algorithm,oracle",
    [(Algorithm.ADAM, ref_adam_run), (Algorithm.ADABELIEF, ref_adabelief_run)],
)
def test_finite_gradient_whose_sum_overflows_steps_like_the_oracle(algorithm, oracle):
    # every entry is finite, but their sum overflows to inf: the step must
    # go ahead, and the squared entries overflow the same way in the oracle
    grads = np.array([[1e308, 1e308, -1e308, 1e308]] * 3)
    theta0 = np.array([0.5, -1.0, 2.0, 0.25])
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(grads[0]))
        fast = trajectory(OptimizerConfig(algorithm=algorithm), grads, theta0)
        ref = oracle(grads.tolist(), theta0.tolist())
    assert fast == ref


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_nonfinite_lr_scale_rejected(scale):
    cfg = _af(0.5)
    st = init_state(1)
    with pytest.raises(ValueError, match=rf"lr_scale must be finite and > 0, got {scale}"):
        step(st, np.zeros(1), np.zeros(1), cfg, lr_scale=scale)
    assert st.t == 0


@pytest.mark.parametrize(
    "kw",
    [
        dict(mu=-0.1),
        dict(mu=1.5),
        dict(alpha=0.0),
        dict(alpha=-1e-3),
        dict(beta1=1.0),
        dict(beta1=-0.1),
        dict(beta2=1.0),
        dict(epsilon=0.0),
        dict(weight_decay=-1e-4),
        dict(mu=float("nan")),
        dict(alpha=float("nan")),
        dict(alpha=float("inf")),
        dict(beta1=float("nan")),
        dict(beta2=float("nan")),
        dict(epsilon=float("nan")),
        dict(epsilon=float("inf")),
        dict(weight_decay=float("nan")),
        dict(weight_decay=float("inf")),
        # bools the range checks alone would pass
        dict(mu=True),
        dict(alpha=True),
        dict(beta1=False),
        dict(beta2=False),
        dict(epsilon=True),
        dict(weight_decay=False),
        # within the range, but it would label a row AdaFamily(-0.0)
        dict(mu=-0.0),
    ],
)
def test_config_validation_rejects(kw):
    with pytest.raises(ValueError):
        OptimizerConfig(algorithm=Algorithm.ADAFAMILY, **kw)


def test_config_refuses_an_algorithm_that_is_no_algorithm():
    # a string would step with Adam's constants and then fail to label its row
    with pytest.raises(ValueError, match="algorithm must be an Algorithm, got 'AdaFamily'"):
        OptimizerConfig(algorithm="AdaFamily", mu=0.5)
    assert OptimizerConfig.from_dict({"algorithm": "AdaFamily", "mu": 0.5}) == _af(0.5)


@pytest.mark.parametrize("algorithm", [a for a in Algorithm if a is not Algorithm.ADAFAMILY])
def test_a_baseline_refuses_a_mu(algorithm):
    message = f"mu belongs to AdaFamily alone; {algorithm.value} takes 0.0, got 0.7"
    with pytest.raises(ValueError, match=message):
        OptimizerConfig(algorithm=algorithm, mu=0.7)
    with pytest.raises(ValueError, match=message):
        OptimizerConfig.from_dict({"algorithm": algorithm.value, "mu": 0.7})
    assert OptimizerConfig(algorithm=algorithm, mu=0.0) == OptimizerConfig(algorithm=algorithm)


def test_decay_mode_follows_algorithm():
    for algorithm in Algorithm:
        placement = "coupled" if algorithm is Algorithm.ADAM else "decoupled"
        assert OptimizerConfig(algorithm=algorithm).decay_mode == "none"
        assert OptimizerConfig(algorithm=algorithm, weight_decay=0.1).decay_mode == placement


@pytest.mark.parametrize("mode", ["none", "coupled", "decoupled", "l2"])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_from_dict_loads_derived_mode_or_own_placement(algorithm, weight_decay, mode):
    # exactly the stored modes a config with an explicit mode field accepted:
    # the algorithm's placement, and "none" when there is no decay
    placement = "coupled" if algorithm is Algorithm.ADAM else "decoupled"
    loads = mode == placement or (mode == "none" and weight_decay == 0.0)
    mu = 0.25 if algorithm is Algorithm.ADAFAMILY else 0.0
    built = OptimizerConfig(algorithm=algorithm, mu=mu, weight_decay=weight_decay)
    stored = dict(built.to_dict(), decay_mode=mode)
    if not loads:
        with pytest.raises(ValueError, match=f"decay_mode '{mode}'.*decays '{built.decay_mode}'"):
            OptimizerConfig.from_dict(stored)
        return
    loaded = OptimizerConfig.from_dict(stored)
    keyless = {k: v for k, v in stored.items() if k != "decay_mode"}
    assert loaded == built == OptimizerConfig.from_dict(keyless)
    assert loaded.to_dict() == built.to_dict()
    theta0, grads = _random_run(2200, steps=20)
    a = np.array(trajectory(loaded, grads, theta0))
    b = np.array(trajectory(OptimizerConfig.from_dict(keyless), grads, theta0))
    assert a.tobytes() == b.tobytes()


def test_labels():
    assert _af(0.5).label == "AdaFamily(0.5)"
    assert _af(0.0).label == "AdaFamily(0.0)"
    assert _af(1.0).label == "AdaFamily(1.0)"
    assert OptimizerConfig(algorithm=Algorithm.ADAM).label == "Adam"
    assert OptimizerConfig(algorithm=Algorithm.ADAMW).label == "AdamW"
    assert OptimizerConfig(algorithm=Algorithm.ADABELIEF).label == "AdaBelief"
    assert OptimizerConfig(algorithm=Algorithm.ADAMOMENTUM).label == "AdaMomentum"


def test_config_dict_roundtrip():
    cfg = _af(0.75, alpha=2e-3, weight_decay=1e-4)
    assert OptimizerConfig.from_dict(cfg.to_dict()) == cfg
    cfg = OptimizerConfig(algorithm=Algorithm.ADAM, weight_decay=1e-4)
    assert OptimizerConfig.from_dict(cfg.to_dict()) == cfg


# -------------------------------------------------------------------------
# behavior
# -------------------------------------------------------------------------


def test_state_size_is_two_buffers():
    # a fresh state belongs to no algorithm, so check the state a step leaves
    for algorithm in Algorithm:
        st = init_state(23)
        step(st, np.zeros(23), np.ones(23), OptimizerConfig(algorithm=algorithm))
        assert [f.name for f in dataclasses.fields(st)] == ["m", "v", "t"]
        assert [k for k, a in vars(st).items() if isinstance(a, np.ndarray)] == ["m", "v"]
        assert st.m.size + st.v.size == 46


def test_every_algorithm_descends_a_bowl():
    # f(theta) = theta^2/2, grad = theta; from 3.0 every rule must shrink
    # the coordinate over 2000 steps at the default rate
    for algorithm in Algorithm:
        for mu in GRID_MUS if algorithm is Algorithm.ADAFAMILY else [0.0]:
            cfg = OptimizerConfig(algorithm=algorithm, mu=mu)
            st = init_state(1)
            params = np.array([3.0])
            for _ in range(2000):
                params = step(st, params, params.copy(), cfg)
            assert abs(params[0]) < 3.0 * 0.6, (algorithm, mu, params[0])


def test_adabelief_displacement_grows_under_constant_gradient():
    # with g identically 1 the belief residual g - m shrinks, v collapses
    # toward its eps floor, and the per-step displacement grows from
    # ~alpha toward alpha/sqrt(eps/(1-beta2)) ~ 0.316
    traj = ref_adabelief_run([[1.0]] * 300, [0.0])
    th = [0.0] + [t[0] for t in traj]
    disp = [abs(b - a) for a, b in zip(th, th[1:])]
    assert disp[0] == pytest.approx(1.111104240118528e-3, rel=1e-12)
    assert disp[9] > disp[0]
    assert disp[99] > disp[9]
    assert disp[299] > disp[99]
    assert disp[299] == pytest.approx(9.03406463000378e-3, rel=1e-10)


def test_bias_correction_first_step_magnitude():
    # at t=1 the corrections cancel the (1-beta) factors exactly, so the
    # first Adam step has magnitude ~alpha for any gradient scale well
    # above eps: alpha * g0 / (g0 + eps)
    for g0 in (1e-2, 1.0, 1e6):
        cfg = OptimizerConfig(algorithm=Algorithm.ADAM)
        st = init_state(1)
        p = step(st, np.array([0.0]), np.array([g0]), cfg)
        assert abs(p[0]) == pytest.approx(1e-3, rel=1e-5)
