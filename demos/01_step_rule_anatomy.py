"""Anatomy of one blended optimizer step.

The whole family is one update rule with a blend parameter mu in [0, 1]:

    m_t = beta1 * m_{t-1} + (1 - beta1) * g_t          first moment
    s_t = c(mu) * ((1 - mu) * g_t - mu * m_t)          blended signal
    v_t = beta2 * v_{t-1} + (1 - beta2) * s_t^2 + eps  second moment
    theta -= alpha * mhat / sqrt(vhat)                 bias-corrected step

with c(mu) = 2 * (1 - |mu - 0.5|) keeping the signal scale comparable
across the grid.  mu=0 squares the raw gradient (Adam-like), mu=0.5
squares the gradient-minus-momentum residual (AdaBelief-like), mu=1
squares the momentum itself (AdaMomentum-like).

This script walks one step by hand and then sweeps mu to show how the
same gradient produces a family of different step sizes.
"""

import numpy as np

from adafamily import (
    Algorithm,
    OptimizerConfig,
    init_state,
    normalization_factor,
    step,
)


def walk_one_step():
    print("=== one step, unpacked (mu = 0.5) ===")
    config = OptimizerConfig(algorithm=Algorithm.ADAFAMILY, mu=0.5)
    grad = np.array([0.3, -1.2])
    params = np.zeros(2)

    # by-hand quantities for the first step (state starts at zero)
    c = normalization_factor(config.mu)
    m1 = (1 - config.beta1) * grad
    s1 = c * ((1 - config.mu) * grad - config.mu * m1)
    v1 = (1 - config.beta2) * s1**2 + config.epsilon
    mhat = m1 / (1 - config.beta1)
    vhat = v1 / (1 - config.beta2)
    by_hand = params - config.alpha * mhat / np.sqrt(vhat)

    state = init_state(2)
    stepped = step(state, params, grad, config)

    print(f"gradient        {grad}")
    print(f"c(mu)           {c}")
    print(f"m_1             {m1}")
    print(f"blended s_1     {s1}")
    print(f"v_1             {v1}")
    print(f"update by hand  {by_hand}")
    print(f"update by step  {stepped}")
    print(f"agreement       {np.max(np.abs(by_hand - stepped)):.3e}")
    print()


def sweep_blend():
    print("=== same gradient, whole mu grid ===")
    grad = np.array([0.3, -1.2])
    print(f"{'mu':>5}  {'c(mu)':>6}  first-step displacement")
    for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
        config = OptimizerConfig(algorithm=Algorithm.ADAFAMILY, mu=mu)
        state = init_state(2)
        moved = step(state, np.zeros(2), grad, config)
        print(f"{mu:5.2f}  {normalization_factor(mu):6.2f}  {moved}")
    print()
    print("mu=0 and mu=1 normalize to c=1, the midpoint doubles the")
    print("residual signal.  Past mu=0.5 the squared signal is dominated")
    print("by the still-small momentum, so early steps grow well beyond")
    print("alpha -- the momentum-style variants start out more aggressive.")


if __name__ == "__main__":
    walk_one_step()
    sweep_blend()
