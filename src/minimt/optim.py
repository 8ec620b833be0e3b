"""Adam with bias correction, operating in place on parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moments. The update denominator is
    sqrt(v_hat) + ADAM_EPSILON (the original formulation)."""

    step_count: int = 0
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if self.step_count < 0:
            raise ValueError("step_count must be non-negative")

    @classmethod
    def init(cls, params) -> "AdamState":
        return cls(
            step_count=0,
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
        )


def adam_step(params, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update. Mutates params and state in place and
    returns them. Non-finite gradients abort loudly."""
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ValueError("params/grads/state length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"param/grad shape mismatch: {p.shape} vs {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("adam_step: gradient is not finite; training must halt")

    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
    return params, state
