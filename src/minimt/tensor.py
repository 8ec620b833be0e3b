"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: every op records its parents and a backward closure; backward()
walks the graph in reverse topological order. Storage is float32; the test
harness can switch leaf creation to float64 via shadow_float64() for
finite-difference oracles. Ops never mutate their inputs.

An op's operands are of two kinds. When none of them is a Tensor (each is
an ndarray or a scalar) the op returns the plain ndarray its numpy
expression computes, with no graph bookkeeping. Otherwise it records a graph
node, whether or not a leaf below it is trainable. So one model definition
serves training (Tensors) and evaluation and inference (float32 arrays).

Three ops are fused: split_heads, attend and feed_forward each record one
node for a chain of the primitive ops (named in their docstrings), with a
hand-written backward. A fused op equals its chain byte for byte: its
forward evaluates the chain's numpy expressions in the chain's order, its
backward does the chain's per-element arithmetic, and each gradient it
passes on has the memory layout the chain's would have had, because a
later gemm's rounding can depend on its operands' layout. The chains stay
written out in tests/test_tensor.py as the oracle.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_DEFAULT_DTYPE = np.float32

# additive mask value for attention; large but finite so softmax stays NaN-free
NEG_INF = -1.0e9

# a Python float: a NumPy float64 scalar would promote float32 activations
LAYER_NORM_EPSILON = 1e-5


def default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def shadow_float64():
    """Run leaf creation in float64. Test-harness only: used by gradient
    oracles so central finite differences are not drowned in float32 noise."""
    global _DEFAULT_DTYPE
    saved = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = np.float64
    try:
        yield
    finally:
        _DEFAULT_DTYPE = saved


class Tensor:
    """n-d array plus optional grad. requires_grad marks trainable leaves
    and every graph node; backward stops at leaves without it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False, *, _parents=(), _bwd=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._bwd = _bwd

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # the right operand may be a Tensor, ndarray, or scalar
    def __mul__(self, other):
        return mul(self, other)


def _result(data, operands, bwd) -> Tensor:
    """The graph node of an op's output; its parents are the op's Tensor
    operands."""
    parents = tuple(t for t in operands if isinstance(t, Tensor))
    node = Tensor(data, requires_grad=True, _parents=parents, _bwd=bwd)
    return node


def _accum(t: Tensor, g: np.ndarray):
    """Accumulate a gradient that may alias another tensor's grad (copied on
    first bind)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, copy=True)
    else:
        t.grad += g


def _accum_owned(t: Tensor, g: np.ndarray):
    """Accumulate a gradient array created inside the calling closure (safe
    to bind without copying on first contribution)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _raw(x):
    """Operand data. ndarrays and scalars come back as themselves, so an op
    whose operands all satisfy _raw(x) is x returns its plain result.
    Python scalars stay unwrapped because NumPy keeps an array's dtype
    against them but promotes float32 against a 0-d float64 array."""
    if isinstance(x, (np.ndarray, np.generic, int, float)):
        return x
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x)


def add(a, b) -> Tensor:
    ad, bd = _raw(a), _raw(b)
    out = ad + bd
    if ad is a and bd is b:
        return out

    def bwd(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g, ad.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(g, bd.shape))

    return _result(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    ad, bd = _raw(a), _raw(b)
    out = ad * bd
    if ad is a and bd is b:
        return out

    def bwd(g):
        if isinstance(a, Tensor):
            _accum_owned(a, _unbroadcast(g * bd, ad.shape))
        if isinstance(b, Tensor):
            _accum_owned(b, _unbroadcast(g * ad, bd.shape))

    return _result(out, (a, b), bwd)


def matmul(a, b) -> Tensor:
    """Matrix product with leading batch dimensions: (..., m, k) @ (..., k, n)."""
    ad, bd = _raw(a), _raw(b)
    if ad.ndim < 2 or bd.ndim < 2:
        raise ValueError(f"matmul needs >=2-d operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ValueError(f"matmul inner dimension mismatch: {ad.shape} @ {bd.shape}")
    out = ad @ bd
    if ad is a and bd is b:
        return out

    def bwd(g):
        if isinstance(a, Tensor):
            _accum_owned(a, _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape))
        if isinstance(b, Tensor):
            _accum_owned(b, _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape))

    return _result(out, (a, b), bwd)


def relu(x: Tensor) -> Tensor:
    xd = _raw(x)
    out = np.maximum(xd, 0.0)
    if xd is x:
        return out
    mask = xd > 0

    def bwd(g):
        _accum_owned(x, g * mask)

    return _result(out, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    xd = _raw(x)
    out = xd.reshape(shape)
    if xd is x:
        return out

    def bwd(g):
        _accum(x, g.reshape(xd.shape))

    return _result(out, (x,), bwd)


def transpose(x: Tensor, axes) -> Tensor:
    xd = _raw(x)
    out = xd.transpose(axes)
    if xd is x:
        return out
    inverse = np.argsort(axes)

    def bwd(g):
        _accum(x, g.transpose(inverse))

    return _result(out, (x,), bwd)


# fast_max hands arrays of fewer rows (reductions) to ndarray.max; the
# crossover measured on one core lies between 48 and 128 rows
FAST_MAX_MIN_ROWS = 64


def fast_max(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """x.max(axis, keepdims=True), bit for bit. NumPy reduces a short last
    axis one row at a time; reducing the leading axis of a contiguous copy
    runs elementwise maximum over whole rows instead: 3-12x faster for
    attention scores and logits of a few hundred rows or more, while below
    FAST_MAX_MIN_ROWS rows the copy's fixed cost loses. Max is exact, so
    only the sign of a zero maximum can depend on the order: such results
    are recomputed the slow way."""
    axis = axis % x.ndim
    if x.size < FAST_MAX_MIN_ROWS * x.shape[axis]:
        return x.max(axis=axis, keepdims=True)
    order = (axis, *range(axis), *range(axis + 1, x.ndim))
    m = np.maximum.reduce(x.transpose(order).copy(), axis=0)
    if not m.all():
        return x.max(axis=axis, keepdims=True)
    return m.reshape(x.shape[:axis] + (1,) + x.shape[axis + 1:])


def log_softmax(x: np.ndarray) -> np.ndarray:
    """log(softmax(x)) of an array along its last axis, max-subtracted."""
    z = x - fast_max(x)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max-subtraction) along one axis."""
    xd = _raw(x)
    shifted = xd - fast_max(xd, axis)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    if xd is x:
        return out

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        _accum_owned(x, out * (g - inner))

    return _result(out, (x,), bwd)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, heads, T, dh) -> (B, T, heads * dh): a view where the axes merge
    (keeping x's memory order), a C-order copy otherwise."""
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(B, T, d) -> (B, heads, T, d / heads): reshape + transpose."""
    xd = _raw(x)
    b, t, d = xd.shape
    out = xd.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)
    if xd is x:
        return out

    def bwd(g):
        # may be a view of g, as the chain's reshape handed on
        _accum(x, _merge_heads(g))

    return _result(out, (x,), bwd)


def attend(q: Tensor, k: Tensor, v: Tensor, bias, n_heads: int) -> Tensor:
    """Scaled dot-product attention of flat queries q (B, Tq, d) over
    head-split keys and values (B, heads, Tk, d / heads), plus an additive
    bias array (None for no mask); heads are merged back to (B, Tq, d).
    The chain split_heads(q), transpose(k), matmul, mul by the scale, add
    bias, softmax, matmul, transpose, reshape as one node."""
    qd, kd, vd = _raw(q), _raw(k), _raw(v)
    scale = (qd.shape[-1] // n_heads)**-0.5
    qh = split_heads(qd, n_heads)
    scores = (qh @ kd.transpose(0, 1, 3, 2)) * scale
    if bias is not None:
        scores = scores + bias
    p = softmax(scores, axis=-1)
    out = _merge_heads(p @ vd)
    if qd is q and kd is k and vd is v:
        return out

    def bwd(g):
        # a view of g: the chain's copies kept g's memory order
        gctx = split_heads(g, n_heads)
        if isinstance(v, Tensor):
            _accum_owned(v, p.swapaxes(-1, -2) @ gctx)
        gp = gctx @ vd.swapaxes(-1, -2)
        inner = (gp * p).sum(axis=-1, keepdims=True)
        gs = (p * (gp - inner)) * scale
        if isinstance(k, Tensor):
            _accum_owned(k, (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2))
        if isinstance(q, Tensor):
            _accum_owned(q, _merge_heads(gs @ kd))

    return _result(out, (q, k, v), bwd)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2: the chain matmul, add, relu, matmul, add
    as one node."""
    xd, w1d, b1d, w2d, b2d = _raw(x), _raw(w1), _raw(b1), _raw(w2), _raw(b2)
    h = np.maximum(xd @ w1d + b1d, 0.0)
    out = h @ w2d + b2d
    if xd is x and w1d is w1 and b1d is b1 and w2d is w2 and b2d is b2:
        return out

    def bwd(g):
        if isinstance(b2, Tensor):
            _accum(b2, _unbroadcast(g, b2d.shape))
        if isinstance(w2, Tensor):
            _accum_owned(w2, _unbroadcast(h.swapaxes(-1, -2) @ g, w2d.shape))
        gz = (g @ w2d.swapaxes(-1, -2)) * (h > 0)
        if isinstance(b1, Tensor):
            _accum(b1, _unbroadcast(gz, b1d.shape))
        if isinstance(w1, Tensor):
            _accum_owned(w1, _unbroadcast(xd.swapaxes(-1, -2) @ gz, w1d.shape))
        if isinstance(x, Tensor):
            _accum_owned(x, gz @ w1d.swapaxes(-1, -2))

    return _result(out, (x, w1, b1, w2, b2), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    xd, gd, bd = _raw(x), _raw(gain), _raw(bias)
    if gd.shape != xd.shape[-1:] or bd.shape != xd.shape[-1:]:
        raise ValueError("gain/bias must match the last dimension")
    # sum / d is ndarray.mean's float32 reduction and a correctly rounded
    # division, without mean's dispatch and float64 division
    d = xd.shape[-1]
    mu = np.add.reduce(xd, axis=-1, keepdims=True) / d
    centered = xd - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPSILON)
    xhat = centered * inv
    out = xhat * gd + bd
    if xd is x and gd is gain and bd is bias:
        return out

    def bwd(g):
        if isinstance(gain, Tensor):
            _accum_owned(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if isinstance(bias, Tensor):
            _accum_owned(bias, g.reshape(-1, d).sum(axis=0))
        if isinstance(x, Tensor):
            dxhat = g * gd
            m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
            m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
            _accum_owned(x, inv * (dxhat - m1 - xhat * m2))

    return _result(out, (x, gain, bias), bwd)


def embedding(weight: Tensor, ids) -> Tensor:
    """Row gather: weight[(V, d)], ids int array (...,) -> (..., d)."""
    ids = np.asarray(ids)
    wd = _raw(weight)
    out = wd[ids]
    if wd is weight:
        return out

    def bwd(g):
        gw = np.zeros_like(wd)
        np.add.at(gw, ids, g)
        _accum_owned(weight, gw)

    return _result(out, (weight,), bwd)


def dropout(x: Tensor, rate: float, rng) -> Tensor:
    """Inverted dropout; identity when rate == 0."""
    if rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    xd = _raw(x)
    mask = (rng.uniform(xd.shape) >= rate).astype(xd.dtype) / (1.0 - rate)
    return mul(x, mask)


def sum_all(x: Tensor) -> Tensor:
    xd = _raw(x)
    out = xd.sum()
    if xd is x:
        return out

    def bwd(g):
        _accum_owned(x, np.broadcast_to(g, xd.shape).copy() if np.ndim(g) else
               np.full_like(xd, g))

    return _result(out, (x,), bwd)


def cross_entropy(logits: Tensor, targets, label_smoothing: float = 0.0, *,
                  ignore_index: int) -> Tensor:
    """Mean negative log-likelihood over the rows whose target is not
    ignore_index.

    With smoothing eps, the per-row target distribution puts (1 - eps) on the
    gold class and eps/vocab on every other class.
    """
    ld = _raw(logits)
    if ld.ndim != 2:
        raise ValueError(f"cross_entropy expects (batch, vocab) logits, got {ld.shape}")
    targets = np.asarray(targets)
    n, vocab = ld.shape
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match batch {n}")

    keep = targets != ignore_index
    count = int(keep.sum())
    if count == 0:
        raise ValueError("cross_entropy: every target is ignored")
    safe_targets = np.where(keep, targets, 0)
    if safe_targets.min() < 0 or safe_targets.max() >= vocab:
        raise ValueError("target index out of vocabulary range")

    logp = log_softmax(ld)  # (n, vocab)

    eps = label_smoothing
    rows = np.arange(n)
    gold_lp = logp[rows, safe_targets]
    if eps > 0.0:
        total_lp = logp.sum(axis=1)
        per_row = -((1.0 - eps) * gold_lp + (eps / vocab) * (total_lp - gold_lp))
    else:
        per_row = -gold_lp
    loss_val = (per_row * keep).sum() / count

    loss = np.asarray(loss_val, dtype=ld.dtype)
    if ld is logits:
        return loss

    def bwd(g):
        p = np.exp(logp)
        q = np.full_like(p, eps / vocab)
        q[rows, safe_targets] = 1.0 - eps
        # the smoothed target distribution has total mass 1 - eps/vocab
        q_mass = (1.0 - eps) + (vocab - 1) * eps / vocab
        dl = (p * q_mass - q) * (g / count)
        dl[~keep] = 0.0
        _accum_owned(logits, dl)

    return _result(loss, (logits,), bwd)


def backward(loss: Tensor) -> None:
    """Populate .grad for every trainable leaf reachable from a scalar loss.
    Repeated calls without resetting grads accumulate."""
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")

    # iterative topological order (graphs are deeper than the recursion limit)
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))

    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += np.ones_like(loss.data)
    for node in reversed(topo):
        if node._bwd is not None:
            node._bwd(node.grad)
