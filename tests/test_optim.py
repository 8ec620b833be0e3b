import math

import numpy as np
import pytest

from minimt.optim import AdamState, adam_step
from minimt.rng import Rng


def test_zero_grads_leave_params_exactly_unchanged():
    p = Rng(0).normal((5, 3))
    before = p.copy()
    state = AdamState.init(p)
    adam_step(p, np.zeros_like(p), state, lr=0.1)
    assert np.array_equal(p, before)
    assert state.step_count == 1


def test_single_scalar_step_matches_hand_formula():
    p = np.array([0.5], dtype=np.float32)
    g = np.array([1.0], dtype=np.float32)
    state = AdamState.init(p)
    adam_step(p, g, state, lr=0.1)
    # hand evaluation of the recurrence with defaults b1=0.9 b2=0.999 eps=1e-8:
    # m=0.1, v=0.001, m_hat=1, v_hat=1, update=0.1*1/(1+1e-8)
    want = 0.5 - 0.1 * 1.0 / (math.sqrt(1.0) + 1e-8)
    assert float(p[0]) == pytest.approx(want, abs=1e-7)


def test_two_steps_match_float64_reference_recurrence():
    p = np.array([0.5, -1.25], dtype=np.float32)
    grads = [
        np.array([1.0, -2.0], dtype=np.float32),
        np.array([0.5, 0.25], dtype=np.float32),
    ]
    state = AdamState.init(p)
    for g in grads:
        adam_step(p, g, state, lr=0.01)

    # independent float64 recurrence
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    ref = np.array([0.5, -1.25], dtype=np.float64)
    m = np.zeros(2)
    v = np.zeros(2)
    for t, g in enumerate(grads, start=1):
        g = g.astype(np.float64)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert np.max(np.abs(p.astype(np.float64) - ref)) < 1e-6


def test_nan_grads_raise():
    p = np.zeros(3, dtype=np.float32)
    state = AdamState.init(p)
    bad = np.array([0.0, np.nan, 0.0], dtype=np.float32)
    with pytest.raises(ValueError, match="finite"):
        adam_step(p, bad, state, lr=0.1)


def test_shape_mismatch_raises():
    p = np.zeros(3, dtype=np.float32)
    state = AdamState.init(p)
    with pytest.raises(ValueError):
        adam_step(p, np.zeros(4, dtype=np.float32), state, lr=0.1)
