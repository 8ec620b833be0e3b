"""Shared finite-difference harness for model gradients (float64 shadow)."""

import math

import numpy as np

from minimt.model import ModelConfig, batch_loss, init_model
from minimt.rng import Rng
from minimt.tensor import Tensor, backward, mul, shadow_float64, sum_all
from minimt.vocab import build_vocab


class FakeRecord:
    def __init__(self, src, tgt, src_lang, tgt_lang):
        self.src, self.tgt = src, tgt
        self.src_lang, self.tgt_lang = src_lang, tgt_lang


def finite_diff(make_loss, t, h=1e-5):
    """Central finite differences of a scalar loss wrt tensor t (t must be
    float64 for this to be meaningful)."""
    grad = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(make_loss().data)
        flat[i] = orig - h
        lo = float(make_loss().data)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return grad


def check_op_gradients(op, arrays, h=1e-5):
    """Analytic gradients of sum(op(*operands) * dy), dy a fixed random
    weighting, w.r.t. float64 Tensors over arrays vs central differences.
    Returns the largest relative error over every operand element."""
    with shadow_float64():
        operands = [Tensor(np.array(a, dtype=np.float64), requires_grad=True)
                    for a in arrays]
        dy = Rng(0).normal(op(*operands).shape, dtype=np.float64)

        def loss():
            return sum_all(mul(op(*operands), dy))

        backward(loss())
        worst = 0.0
        for t in operands:
            num = finite_diff(loss, t, h)
            rel = np.abs(t.grad - num) / np.maximum(np.abs(num), 1e-6)
            worst = max(worst, float(rel.max()))
    return worst


def micro_model_and_batch(seed, d_model=8, n_heads=2, ffn_dim=16,
                          n_enc=1, n_dec=1):
    """Tiny float64 model plus a 2-record training batch. Must be called
    inside shadow_float64()."""
    rng = Rng(seed)
    vocab = build_vocab("abcd ", ["anu_Latn", "bnu_Latn"])
    config = ModelConfig(
        vocab_size=len(vocab), d_model=d_model, n_heads=n_heads,
        ffn_dim=ffn_dim, n_encoder_layers=n_enc, n_decoder_layers=n_dec,
        max_positions=16,
    )
    model = init_model(config, vocab, rng)
    records = [
        FakeRecord("ab cd", "ba dc", "anu_Latn", "bnu_Latn"),
        FakeRecord("dca", "acd b", "bnu_Latn", "anu_Latn"),
    ]
    return model, vocab, config, records


def check_model_gradients(seed, rel_tol=1e-3, h=1e-3, **dims):
    """Analytic grads of the full teacher-forced loss vs central differences
    for every parameter element. Returns (n_checked, max_rel_err)."""
    with shadow_float64():
        model, vocab, config, records = micro_model_and_batch(seed, **dims)
        from minimt.model import build_batch

        batch = build_batch(vocab, records, config.max_positions)

        tensors = {k: Tensor(v, requires_grad=True) for k, v in model.params.items()}

        def loss_value():
            return float(batch_loss(tensors, config, vocab, batch,
                                    label_smoothing=0.1).data)

        loss = batch_loss(tensors, config, vocab, batch, label_smoothing=0.1)
        backward(loss)

        def central_diff(flat, i, step):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_value()
            flat[i] = orig - step
            lo = loss_value()
            flat[i] = orig
            return (hi - lo) / (2 * step)

        n_checked = 0
        max_rel = 0.0
        for name, t in tensors.items():
            analytic = t.grad
            assert analytic is not None, f"no gradient reached {name}"
            flat = model.params[name].reshape(-1)
            aflat = analytic.reshape(-1)
            for i in range(flat.size):
                rel = math.inf
                # a perturbation window straddling a relu kink corrupts the
                # difference quotient; retrying with a smaller h removes the
                # artifact while a genuine gradient bug persists
                for step in (h, h / 10, h / 50):
                    numeric = central_diff(flat, i, step)
                    denom = max(abs(numeric), abs(aflat[i]))
                    if denom < 1e-8:
                        rel = 0.0
                        break
                    rel = min(rel, abs(aflat[i] - numeric) / denom)
                    if rel < rel_tol:
                        break
                max_rel = max(max_rel, rel)
                n_checked += 1
                assert rel < rel_tol, (
                    f"{name}[{i}]: analytic={aflat[i]:.8g} rel={rel:.3g}")
        return n_checked, max_rel
