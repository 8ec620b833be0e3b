import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimt.model import (
    ModelConfig,
    batch_loss,
    build_batch,
    causal_bias,
    init_model,
    pad_bias,
)
from minimt.rng import Rng
from minimt.tensor import (
    FAST_MAX_MIN_ROWS,
    Tensor,
    add,
    attend,
    backward,
    cross_entropy,
    embedding,
    fast_max,
    feed_forward,
    layer_norm,
    matmul,
    mul,
    relu,
    reshape,
    shadow_float64,
    softmax,
    split_heads,
    sum_all,
    transpose,
)
from minimt.vocab import build_vocab

from .gradcheck import (
    FakeRecord,
    check_op_gradients,
    finite_diff,
    micro_model_and_batch,
)


def triple_loop_matmul(a, b):
    """Naive reference product, float64."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += float(a[i, t]) * float(b[t, j])
    return out


class TestMatmul:
    def test_identity(self):
        m = Rng(0).normal((3, 3))
        out = matmul(Tensor(np.eye(3, dtype=np.float32)), Tensor(m))
        assert np.array_equal(out.data, m)

    def test_annihilator(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        z = Tensor(np.zeros((2, 2), dtype=np.float32))
        assert np.array_equal(matmul(a, z).data, np.zeros((2, 2), dtype=np.float32))

    def test_matches_triple_loop_oracle(self):
        a = Rng(1).normal((4, 5))
        b = Rng(2).normal((5, 3))
        got = matmul(Tensor(a), Tensor(b)).data
        want = triple_loop_matmul(a, b)
        assert np.max(np.abs(got.astype(np.float64) - want)) < 1e-6

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_gradients(self):
        with shadow_float64():
            a = Tensor(Rng(3).normal((2, 4, 3), dtype=np.float64), requires_grad=True)
            b = Tensor(Rng(4).normal((3, 5), dtype=np.float64), requires_grad=True)
            loss = sum_all(matmul(a, b))
            backward(loss)
        # d(sum(A@B))/dA = ones @ B^T broadcast; check against finite differences
        for t in (a, b):
            num = finite_diff(lambda: sum_all(matmul(a, b)), t)
            assert np.max(np.abs(t.grad - num)) < 1e-6


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor(np.zeros(3, dtype=np.float32)), axis=-1)
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_overflow_stability(self):
        out = softmax(Tensor(np.array([1000.0, 0.0], dtype=np.float32)), axis=-1)
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-6)

    def test_matches_float64_oracle(self):
        x = Rng(9).normal((7,), std=3.0)
        got = softmax(Tensor(x), axis=-1).data.astype(np.float64)
        x64 = x.astype(np.float64)
        want = np.exp(x64) / np.exp(x64).sum()
        assert np.max(np.abs(got - want)) < 1e-6

    def test_rows_sum_to_one(self):
        x = Rng(10).normal((4, 6), std=2.0)
        out = softmax(Tensor(x), axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_simplex_property(self, seed):
        x = Rng(seed).normal((3, 5), std=4.0)
        y = softmax(Tensor(x), axis=-1).data
        assert np.all(y >= 0)
        assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-6)


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        x = Tensor(np.full((2, 4), 3.0, dtype=np.float32))
        g = Tensor(np.ones(4, dtype=np.float32))
        b = Tensor(np.zeros(4, dtype=np.float32))
        out = layer_norm(x, g, b)
        assert np.allclose(out.data, 0.0, atol=1e-5)

    def test_normalized_stats(self):
        x = Rng(11).normal((5, 16), std=2.0)
        out = layer_norm(
            Tensor(x), Tensor(np.ones(16, dtype=np.float32)),
            Tensor(np.zeros(16, dtype=np.float32)),
        ).data
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-5
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-4

    def test_gradient_matches_finite_differences(self):
        with shadow_float64():
            x = Tensor(Rng(12).normal((3, 6), dtype=np.float64), requires_grad=True)
            g = Tensor(Rng(13).normal((6,), dtype=np.float64), requires_grad=True)
            b = Tensor(Rng(14).normal((6,), dtype=np.float64), requires_grad=True)
            w = Rng(15).normal((3, 6), dtype=np.float64)  # fixed projection

            def loss():
                return sum_all(layer_norm(x, g, b) * w)

            backward(loss())
            for t in (x, g, b):
                num = finite_diff(loss, t, h=1e-3)
                rel = np.abs(t.grad - num) / np.maximum(np.abs(num), 1e-4)
                assert np.max(rel) < 1e-3


def _mean_layer_norm(x, g, b, dy, epsilon=1e-5):
    """Oracle: layer norm with ndarray.mean, as first written. Returns the
    output and the gradients of sum(out * dy) w.r.t. x, g and b."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
    xhat = centered * inv
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    d = x.shape[-1]
    return (xhat * g + b, inv * (dxhat - m1 - xhat * m2),
            (dy * xhat).reshape(-1, d).sum(axis=0), dy.reshape(-1, d).sum(axis=0))


class TestLayerNormBytes:
    """layer_norm's sum / d means give the .mean formulation's bytes."""

    @pytest.mark.parametrize("d", [5, 24, 29, 32, 33, 48, 64])
    @pytest.mark.parametrize("shadow", [False, True])
    def test_output_and_gradients_equal_the_mean_oracle(self, d, shadow):
        dtype = np.float64 if shadow else np.float32
        r = Rng(d)
        x_, g_, b_, dy = (r.normal(shape, std=2.0, dtype=dtype)
                          for shape in ((3, 7, d), (d,), (d,), (3, 7, d)))
        x, g, b = (Tensor(a, requires_grad=True) for a in (x_, g_, b_))
        with shadow_float64() if shadow else contextlib.nullcontext():
            out = layer_norm(x, g, b)
            backward(sum_all(out * dy))
        want = _mean_layer_norm(x_, g_, b_, dy)
        for got, expected in zip((out.data, x.grad, g.grad, b.grad), want):
            assert got.dtype == expected.dtype == dtype
            assert got.tobytes() == expected.tobytes()
        assert layer_norm(x_, g_, b_).tobytes() == want[0].tobytes()


def _chain_split_heads(x, n_heads):
    b, t, d = x.shape
    return transpose(reshape(x, (b, t, n_heads, d // n_heads)), (0, 2, 1, 3))


def _chain_attend(q, k, v, bias, n_heads):
    """attend written out from the primitive ops."""
    b, tq, d = q.shape
    scores = mul(matmul(_chain_split_heads(q, n_heads), transpose(k, (0, 1, 3, 2))),
                 (d // n_heads)**-0.5)
    if bias is not None:
        scores = add(scores, bias)
    ctx = matmul(softmax(scores, axis=-1), v)
    return reshape(transpose(ctx, (0, 2, 1, 3)), (b, tq, d))


def _chain_feed_forward(x, w1, b1, w2, b2):
    return add(matmul(relu(add(matmul(x, w1), b1)), w2), b2)


def _biases(tq, tk):
    yield None
    yield pad_bias(np.array([tk, tk - 2, 1]), tk)
    if tq == tk:
        yield causal_bias(tk)


class TestFusedOps:
    """A fused op gives its chain of primitive ops' output and gradients
    byte for byte, and every gradient in the chain's memory layout, which
    the gemms of a model's backward pass can see."""

    H = 4

    def _run(self, op, arrays, trainable, dy):
        operands = [Tensor(a.copy(), requires_grad=True) if train else a
                    for a, train in zip(arrays, trainable)]
        out = op(*operands)
        backward(sum_all(mul(out, dy)))
        return out.data, [t.grad for t in operands if isinstance(t, Tensor)]

    def _assert_same(self, fused, chain, arrays, trainable):
        dy = Rng(99).normal(fused(*arrays).shape)
        (out, grads), (want, want_grads) = (self._run(op, arrays, trainable, dy)
                                            for op in (fused, chain))
        assert out.dtype == want.dtype == np.float32
        assert out.tobytes() == want.tobytes()
        assert len(grads) == len(want_grads) == sum(trainable)
        for got, expected in zip(grads, want_grads):
            assert got.dtype == np.float32
            assert (got.shape, got.strides) == (expected.shape, expected.strides)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("tq,tk", [(7, 7), (5, 9), (1, 6)])
    @pytest.mark.parametrize("kv_trainable", [True, False])
    def test_attend_equals_its_chain(self, tq, tk, kv_trainable):
        r, h = Rng(tq * 10 + tk), self.H
        q, k, v = r.normal((3, tq, 32)), r.normal((3, tk, 32)), r.normal((3, tk, 32))
        for bias in _biases(tq, tk):
            self._assert_same(
                lambda q, k, v: attend(q, split_heads(k, h), split_heads(v, h), bias, h),
                lambda q, k, v: _chain_attend(q, _chain_split_heads(k, h),
                                              _chain_split_heads(v, h), bias, h),
                (q, k, v), (True, kv_trainable, kv_trainable))

    def test_split_heads_equals_its_chain(self):
        x = Rng(50).normal((3, 5, 32))
        self._assert_same(lambda x: split_heads(x, self.H),
                          lambda x: _chain_split_heads(x, self.H), (x,), (True,))

    @pytest.mark.parametrize("trainable", [(True,) * 5, (False,) + (True,) * 4,
                                           (True,) + (False,) * 4])
    def test_feed_forward_equals_its_chain(self, trainable):
        r = Rng(51)
        arrays = (r.normal((3, 7, 32)), r.normal((32, 64)), r.normal((64,)),
                  r.normal((64, 32)), r.normal((32,)))
        self._assert_same(feed_forward, _chain_feed_forward, arrays, trainable)

    def test_gradients_match_finite_differences(self):
        r = Rng(52)
        q, k, v = r.normal((3, 2, 8)), r.normal((3, 4, 8)), r.normal((3, 4, 8))
        for bias in _biases(2, 4):
            assert check_op_gradients(
                lambda q, k, v: attend(q, split_heads(k, 2), split_heads(v, 2), bias, 2),
                (q, k, v)) < 1e-6
        x = r.normal((3, 4, 8))
        assert check_op_gradients(lambda x: attend(x, split_heads(x, 2),
                                                   split_heads(x, 2), causal_bias(4), 2),
                                  (x,)) < 1e-6
        ffn_arrays = (r.normal((2, 3, 4)), r.normal((4, 6)), r.normal((6,)),
                      r.normal((6, 4)), r.normal((4,)))
        assert check_op_gradients(feed_forward, ffn_arrays) < 1e-6


class TestFastMax:
    """fast_max equals np.max(x, axis, keepdims=True) byte for byte."""

    SHAPES = [(1,), (9,), (1, 1), (1, 9), (9, 1), (5, 29), (3, 4, 1, 10),
              (2, 3, 7, 7), (4, 0, 3)]
    SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.0]

    def _check(self, x):
        for axis in range(-x.ndim, x.ndim):
            if x.shape[axis] == 0:
                for op in (np.max, fast_max):
                    with pytest.raises(ValueError):
                        op(x, axis)
                continue
            want = np.max(x, axis=axis, keepdims=True)
            got = fast_max(x, axis)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes(), (x, axis)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_axis(self, dtype):
        rng = np.random.default_rng(0)
        for shape in self.SHAPES:
            x = rng.standard_normal(shape).astype(dtype)
            self._check(x)
            self._check(x.T)  # a non-contiguous view

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_infinities_and_signed_zeros(self, dtype):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 8, 17, 40):
            self._check(rng.choice(self.SPECIAL, size=(6, n)).astype(dtype))
            self._check(rng.choice([0.0, -0.0], size=(5, n)).astype(dtype))
            self._check(rng.choice([0.0, -0.0, -1.0, -np.inf],
                                   size=(2, 3, n)).astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_either_side_of_the_row_threshold(self, dtype):
        rng = np.random.default_rng(2)
        for rows in (FAST_MAX_MIN_ROWS - 1, FAST_MAX_MIN_ROWS, FAST_MAX_MIN_ROWS + 1):
            for shape in ((rows, 29), (rows, 1, 1, 10)):
                self._check(rng.standard_normal(shape).astype(dtype))
                self._check(rng.choice(self.SPECIAL, size=shape).astype(dtype))
                self._check(rng.choice([0.0, -0.0], size=shape).astype(dtype))


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        logits = np.full((2, 5), -100.0, dtype=np.float32)
        logits[0, 3] = 100.0
        logits[1, 1] = 100.0
        loss = cross_entropy(Tensor(logits), np.array([3, 1]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_logits_give_log_vocab(self):
        for v in (4, 11, 32):
            logits = np.zeros((3, v), dtype=np.float32)
            loss = cross_entropy(Tensor(logits), np.zeros(3, dtype=np.int64))
            assert float(loss.data) == pytest.approx(math.log(v), rel=1e-6)

    def test_matches_explicit_sum_oracle_with_smoothing(self):
        rng = Rng(21)
        logits = rng.normal((4, 7), std=2.0).astype(np.float64)
        targets = np.array([0, 3, 6, 2])
        eps = 0.1
        with shadow_float64():
            got = float(cross_entropy(Tensor(logits), targets, label_smoothing=eps).data)
        # explicit per-class sum in float64
        want = 0.0
        for i in range(4):
            row = logits[i]
            logp = row - (np.log(np.exp(row - row.max()).sum()) + row.max())
            q = np.full(7, eps / 7)
            q[targets[i]] = 1.0 - eps
            want += -(q * logp).sum()
        want /= 4
        assert got == pytest.approx(want, abs=1e-6)

    def test_ignore_index(self):
        logits = np.zeros((3, 4), dtype=np.float32)
        full = cross_entropy(Tensor(logits), np.array([1, 2, 0]))
        part = cross_entropy(Tensor(logits), np.array([1, -1, -1]), ignore_index=-1)
        assert float(full.data) == pytest.approx(float(part.data))

    def test_all_ignored_raises(self):
        logits = np.zeros((2, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            cross_entropy(Tensor(logits), np.array([-1, -1]), ignore_index=-1)

    def test_gradient_matches_finite_differences(self):
        with shadow_float64():
            x = Tensor(Rng(22).normal((3, 5), dtype=np.float64), requires_grad=True)
            targets = np.array([0, 2, 4])

            def loss():
                return cross_entropy(x, targets, label_smoothing=0.1)

            backward(loss())
            num = finite_diff(loss, x, h=1e-4)
            rel = np.abs(x.grad - num) / np.maximum(np.abs(num), 1e-5)
            assert np.max(rel) < 1e-3


class TestBackward:
    def test_identity_grad_is_one(self):
        x = Tensor(np.array(2.5, dtype=np.float32), requires_grad=True)
        backward(x * 1.0)
        assert x.grad == pytest.approx(1.0)

    def test_sum_of_squares_grad_is_2x(self):
        x = Tensor(Rng(30).normal((4, 3)), requires_grad=True)
        backward(sum_all(x * x))
        assert np.allclose(x.grad, 2 * x.data, atol=1e-6)

    def test_non_scalar_raises(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            backward(x * 2.0)

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        backward(sum_all(x * x))
        g1 = x.grad.copy()
        backward(sum_all(x * x))
        assert np.allclose(x.grad, 2 * g1)

    def test_ops_do_not_mutate_inputs(self):
        x = Rng(31).normal((3, 4))
        t = Tensor(x.copy(), requires_grad=True)
        y = relu(softmax(t, axis=-1) + t * 2.0 - 0.5)
        backward(sum_all(y))
        assert np.array_equal(t.data, x)

        r = Rng(33)
        arrays = (r.normal((2, 3, 4)), r.normal((4, 4)), r.normal((4,)))
        bias = pad_bias(np.array([3, 2]), 3)
        saved = [a.copy() for a in (*arrays, bias)]
        x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
        a = attend(x, split_heads(x, 2), split_heads(x, 2), bias, 2)
        backward(sum_all(feed_forward(a, w, b, w, b)))
        for arr, before in zip((*arrays, bias), saved):
            assert np.array_equal(arr, before)

    def test_reshape_transpose_roundtrip_grad(self):
        x = Tensor(Rng(32).normal((2, 3, 4)), requires_grad=True)
        y = transpose(reshape(x, (6, 4)), (1, 0))
        backward(sum_all(y * y))
        assert np.allclose(x.grad, 2 * x.data, atol=1e-6)

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.0
        backward(sum_all(y))
        assert np.allclose(x.grad, 1.0)


class TestDtype:
    """Python scalars keep an operand's dtype; NumPy 2 would promote float32
    to float64 against a 0-d float64 array."""

    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_python_scalar_keeps_float32(self, requires_grad):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=requires_grad)
        for y in (mul(x, 0.5), add(x, 0.5), x * 2, x + 1, x - 0.5, -x):
            assert y.data.dtype == np.float32

    def test_python_scalar_keeps_float64_under_shadow(self):
        with shadow_float64():
            x = Tensor(Rng(1).normal((3,)), requires_grad=True)
            for y in (mul(x, 0.5), add(x, 0.5), x - 0.5):
                assert y.data.dtype == np.float64

    def test_batch_loss_is_float32(self):
        vocab = build_vocab("abcd ", ["anu_Latn", "bnu_Latn"])
        config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, ffn_dim=16,
                             n_encoder_layers=1, n_decoder_layers=1, max_positions=16)
        model = init_model(config, vocab, Rng(3))
        batch = build_batch(vocab, [FakeRecord("ab", "cd", "anu_Latn", "bnu_Latn")], 16)
        tensors = {k: Tensor(v, requires_grad=True) for k, v in model.params.items()}
        loss = batch_loss(tensors, config, vocab, batch, label_smoothing=0.1)
        backward(loss)
        assert loss.data.dtype == np.float32
        assert all(t.grad.dtype == np.float32 for t in tensors.values())

    def test_batch_loss_is_float64_under_shadow(self):
        with shadow_float64():
            model, vocab, config, records = micro_model_and_batch(seed=4)
            batch = build_batch(vocab, records, config.max_positions)
            tensors = {k: Tensor(v) for k, v in model.params.items()}
            loss = batch_loss(tensors, config, vocab, batch)
        assert loss.data.dtype == np.float64


class TestPlainArrays:
    """With no Tensor operand an op returns the plain array its Tensor form
    computes."""

    def test_plain_operands_give_the_tensor_result(self):
        r = Rng(40)
        x, w = r.normal((2, 3, 4)), r.normal((4, 4))
        g, b = r.normal((4,)), r.normal((4,))
        ids = np.array([[0, 3], [2, 1]])
        cases = [
            (add, (x, b)), (mul, (x, 0.5)), (matmul, (x, w)), (relu, (x,)),
            (lambda a: reshape(a, (6, 4)), (x,)),
            (lambda a: transpose(a, (0, 2, 1)), (x,)),
            (softmax, (x,)), (layer_norm, (x, g, b)), (embedding, (w, ids)),
            (sum_all, (x,)),
            (lambda a: cross_entropy(a, np.array([1, 2])), (x[0, :2],)),
            (lambda a: split_heads(a, 2), (x,)),
            (lambda q, k, v: attend(q, k, v, causal_bias(3), 2),
             (x, r.normal((2, 2, 3, 2)), r.normal((2, 2, 3, 2)))),
            (feed_forward, (x, w, b, w, g)),
        ]
        for op, args in cases:
            plain = op(*args)
            tensor = op(*(Tensor(a) if isinstance(a, np.ndarray) and a.dtype.kind == "f"
                          else a for a in args))
            assert not isinstance(plain, Tensor)
            assert isinstance(tensor, Tensor)
            assert np.asarray(plain).dtype == np.float32
            assert np.array_equal(plain, tensor.data)
