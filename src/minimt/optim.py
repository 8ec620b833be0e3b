"""Adam with bias correction, operating in place on one flat parameter
array."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """First/second moments of the parameter array. The update denominator
    is sqrt(v_hat) + ADAM_EPSILON (the original formulation)."""

    step_count: int
    first_moment: np.ndarray
    second_moment: np.ndarray

    def __post_init__(self):
        if self.step_count < 0:
            raise ValueError("step_count must be non-negative")

    @classmethod
    def init(cls, params: np.ndarray) -> "AdamState":
        return cls(0, np.zeros_like(params), np.zeros_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float):
    """One bias-corrected Adam update. Mutates params and state in place and
    returns them. Non-finite gradients abort loudly."""
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ValueError(f"param/grad/state shape mismatch: {params.shape} vs "
                         f"{grads.shape} vs {state.first_moment.shape}")
    if not np.all(np.isfinite(grads)):
        raise ValueError("adam_step: gradient is not finite; training must halt")

    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    m, v = state.first_moment, state.second_moment
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * (grads * grads)
    params -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
    return params, state
