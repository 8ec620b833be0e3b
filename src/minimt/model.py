"""Micro encoder-decoder transformer with language-tag conditioning.

Pre-norm blocks, sinusoidal positions, shared source/target embedding tied to
the output projection. The parameter set is a flat name -> array mapping so
checkpointing and layer surgery stay trivial. The forward pass is defined
once, here: training runs it on Tensors, and decode.py's teacher-forced
scoring and incremental decoder run the same functions on float32 arrays.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .rng import Rng
from .tensor import (
    NEG_INF,
    Tensor,
    add,
    attend,
    cross_entropy,
    dropout,
    embedding,
    feed_forward,
    layer_norm,
    matmul,
    mul,
    reshape,
    split_heads,
    transpose,
)
# Not called here: perfbench's tracer counts calls through these names on
# this module, so they must stay importable from it.
from .tensor import relu, softmax  # noqa: F401
from .vocab import Vocab, tokenize

ENCODER = "encoder"
DECODER = "decoder"
_SIDE_PREFIX = {ENCODER: "enc", DECODER: "dec"}

FP16_MAX = 65504.0


def check_counts(config, *names: str, minimum: int = 1) -> None:
    """Each named field of config must be an int >= minimum (a bool is not
    a count); the settings dataclasses call this from __post_init__."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    ffn_dim: int = 128
    n_encoder_layers: int = 12
    n_decoder_layers: int = 12
    max_positions: int = 128
    dropout_rate: float = 0.0

    def __post_init__(self):
        check_counts(self, "vocab_size", "d_model", "n_heads", "ffn_dim",
                     "n_encoder_layers", "n_decoder_layers", "max_positions")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


def _encoder_layer_names(i: int):
    p = f"enc.{i}"
    return [
        f"{p}.ln1.g", f"{p}.ln1.b",
        f"{p}.attn.wq", f"{p}.attn.wk", f"{p}.attn.wv", f"{p}.attn.wo",
        f"{p}.ln2.g", f"{p}.ln2.b",
        f"{p}.ffn.w1", f"{p}.ffn.b1", f"{p}.ffn.w2", f"{p}.ffn.b2",
    ]


def _decoder_layer_names(i: int):
    p = f"dec.{i}"
    return [
        f"{p}.ln1.g", f"{p}.ln1.b",
        f"{p}.self.wq", f"{p}.self.wk", f"{p}.self.wv", f"{p}.self.wo",
        f"{p}.ln2.g", f"{p}.ln2.b",
        f"{p}.cross.wq", f"{p}.cross.wk", f"{p}.cross.wv", f"{p}.cross.wo",
        f"{p}.ln3.g", f"{p}.ln3.b",
        f"{p}.ffn.w1", f"{p}.ffn.b1", f"{p}.ffn.w2", f"{p}.ffn.b2",
    ]


def parameter_names(config: ModelConfig) -> list[str]:
    names = ["embedding"]
    for i in range(config.n_encoder_layers):
        names.extend(_encoder_layer_names(i))
    names.extend(["enc.final_ln.g", "enc.final_ln.b"])
    for i in range(config.n_decoder_layers):
        names.extend(_decoder_layer_names(i))
    names.extend(["dec.final_ln.g", "dec.final_ln.b"])
    return names


@lru_cache(maxsize=8)
def sinusoidal_positions(max_positions: int, d_model: int) -> np.ndarray:
    """Parameter-free positional table (max_positions, d_model), float32."""
    pos = np.arange(max_positions, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2 * (dim // 2)) / d_model)
    table = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))
    table = table.astype(np.float32)
    table.setflags(write=False)
    return table


class TranslationModel:
    """config + vocab + flat parameter map. precision is "fp32" or "fp16"
    (half-precision storage; compute always upcasts to float32)."""

    def __init__(self, config: ModelConfig, vocab: Vocab,
                 params: dict[str, np.ndarray], precision: str = "fp32",
                 metadata: dict[str, str] | None = None):
        if config.vocab_size != len(vocab):
            raise ValueError("config.vocab_size does not match the vocabulary")
        expected = parameter_names(config)
        if list(params.keys()) != expected:
            missing = set(expected) - set(params)
            extra = set(params) - set(expected)
            raise ValueError(f"parameter set mismatch (missing={sorted(missing)[:3]}, "
                             f"extra={sorted(extra)[:3]})")
        if precision not in ("fp32", "fp16"):
            raise ValueError(f"unknown precision {precision!r}")
        self.config = config
        self.vocab = vocab
        self.params = params
        self.precision = precision
        self.metadata = dict(metadata or {})

    def clone(self) -> "TranslationModel":
        return TranslationModel(
            self.config, self.vocab,
            {k: v.copy() for k, v in self.params.items()},
            self.precision, copy.deepcopy(self.metadata),
        )

    def parameter_count(self) -> int:
        return sum(a.size for a in self.params.values())

    def fingerprint(self) -> str:
        """Content hash over config, vocab, and parameter bytes (metadata
        excluded so bookkeeping edits do not change identity)."""
        h = hashlib.sha256()
        h.update(repr(self.config).encode())
        h.update("\x1f".join(self.vocab.tokens).encode())
        h.update(self.precision.encode())
        for name, arr in self.params.items():
            h.update(name.encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    def model_id(self) -> str:
        c = self.config
        return (f"enc{c.n_encoder_layers}-dec{c.n_decoder_layers}-d{c.d_model}"
                f"-{self.precision}-{self.fingerprint()[:8]}")


def init_model(config: ModelConfig, vocab: Vocab, rng: Rng,
               metadata: dict[str, str] | None = None) -> TranslationModel:
    """Fresh model; residual output projections are scaled down by depth so
    deep pre-norm stacks start stable."""
    d, f = config.d_model, config.ffn_dim
    depth = config.n_encoder_layers + config.n_decoder_layers
    out_scale = 1.0 / math.sqrt(2.0 * depth)

    params: dict[str, np.ndarray] = {}

    def fill(name: str, r: Rng):
        if name.endswith((".g",)):
            params[name] = np.ones(d, dtype=np.float32)
        elif name.endswith((".b", ".b2")):
            params[name] = np.zeros(d, dtype=np.float32)
        elif name.endswith(".b1"):
            params[name] = np.zeros(f, dtype=np.float32)
        elif name.endswith((".wq", ".wk", ".wv")):
            params[name] = r.normal((d, d), std=d**-0.5)
        elif name.endswith(".wo"):
            params[name] = r.normal((d, d), std=d**-0.5 * out_scale)
        elif name.endswith(".w1"):
            params[name] = r.normal((d, f), std=d**-0.5)
        elif name.endswith(".w2"):
            params[name] = r.normal((f, d), std=f**-0.5 * out_scale)
        elif name == "embedding":
            params[name] = r.normal((config.vocab_size, d), std=d**-0.5)
        else:
            raise AssertionError(f"unhandled parameter {name}")

    for name in parameter_names(config):
        fill(name, rng.split(name))
    return TranslationModel(config, vocab, params, metadata=metadata)


# ---------------------------------------------------------------------------
# Forward pass: the one definition of the transformer math
# ---------------------------------------------------------------------------
#
# Every function below reads weights from w, a name -> weight mapping. For
# training w holds Tensors and the ops record the autodiff graph; for
# evaluation (training.corpus_loss) and inference (decode.py: teacher-forced
# scoring and the incremental decoder) w holds float32 arrays and the same
# ops return plain arrays.


def compute_params(model: TranslationModel) -> dict[str, np.ndarray]:
    """Float32 weight arrays for compute; fp16 storage is upcast."""
    return {k: (v.astype(np.float32) if v.dtype == np.float16 else v)
            for k, v in model.params.items()}


def params_as_tensors(model: TranslationModel) -> dict[str, Tensor]:
    """Non-trainable Tensor views of the compute weights. Ops on them still
    record graph nodes; training.corpus_loss evaluates on their arrays."""
    return {k: Tensor(v) for k, v in compute_params(model).items()}


def key_values(w: dict, prefix: str, x, n_heads: int):
    """Head-split keys and values of x for the attention block at prefix."""
    return (split_heads(matmul(x, w[f"{prefix}.wk"]), n_heads),
            split_heads(matmul(x, w[f"{prefix}.wv"]), n_heads))


def attention(w: dict, prefix: str, x, k, v, bias, n_heads: int):
    """Scaled dot-product attention of queries from x (B, Tq, d) over
    head-split k/v (B, heads, Tk, d / heads), plus an additive bias (None for
    no mask); heads are merged and projected by the block's wo."""
    ctx = attend(matmul(x, w[f"{prefix}.wq"]), k, v, bias, n_heads)
    return matmul(ctx, w[f"{prefix}.wo"])


def ffn(w: dict, prefix: str, x):
    return feed_forward(x, w[f"{prefix}.w1"], w[f"{prefix}.b1"],
                        w[f"{prefix}.w2"], w[f"{prefix}.b2"])


def embed(w: dict, config: ModelConfig, ids: np.ndarray, start: int = 0):
    """Scaled token embeddings of ids (B, T) plus the sinusoidal positions
    start .. start + T - 1."""
    pos = sinusoidal_positions(config.max_positions, config.d_model)
    scaled = mul(embedding(w["embedding"], ids), math.sqrt(config.d_model))
    return add(scaled, pos[start: start + ids.shape[-1]])


def output_logits(w: dict, x):
    """Tied output projection: states (..., d) -> logits (..., vocab)."""
    return matmul(x, transpose(w["embedding"], (1, 0)))


def _residual(x, branch, rate: float, drop_rng, label: str):
    if rate:
        branch = dropout(branch, rate, drop_rng.split(label))
    return add(x, branch)


def encoder_layer(w: dict, i: int, x, bias, n_heads: int,
                  rate: float = 0.0, drop_rng=None):
    """Pre-norm block enc.{i}: self-attention under the source pad bias,
    then FFN; dropout on each branch when rate > 0."""
    p = f"enc.{i}"
    h = layer_norm(x, w[f"{p}.ln1.g"], w[f"{p}.ln1.b"])
    k, v = key_values(w, f"{p}.attn", h, n_heads)
    a = attention(w, f"{p}.attn", h, k, v, bias, n_heads)
    x = _residual(x, a, rate, drop_rng, f"{p}.attn")
    h = layer_norm(x, w[f"{p}.ln2.g"], w[f"{p}.ln2.b"])
    return _residual(x, ffn(w, f"{p}.ffn", h), rate, drop_rng, f"{p}.ffn")


def decoder_layer(w: dict, i: int, x, self_bias, cross_kv, cross_bias,
                  n_heads: int, cache=None, rate: float = 0.0, drop_rng=None):
    """Pre-norm block dec.{i}: self-attention, cross-attention over the
    precomputed encoder keys/values cross_kv (key_values of the encoder
    output), then FFN. With a cache (a [K, V] list, inference only), x holds
    the newest position; its keys/values are appended to the cache and it
    attends over every cached position."""
    p = f"dec.{i}"
    h = layer_norm(x, w[f"{p}.ln1.g"], w[f"{p}.ln1.b"])
    k, v = key_values(w, f"{p}.self", h, n_heads)
    if cache is not None:
        k = cache[0] = np.concatenate([cache[0], k], axis=2)
        v = cache[1] = np.concatenate([cache[1], v], axis=2)
    a = attention(w, f"{p}.self", h, k, v, self_bias, n_heads)
    x = _residual(x, a, rate, drop_rng, f"{p}.self")
    h = layer_norm(x, w[f"{p}.ln2.g"], w[f"{p}.ln2.b"])
    c = attention(w, f"{p}.cross", h, *cross_kv, cross_bias, n_heads)
    x = _residual(x, c, rate, drop_rng, f"{p}.cross")
    h = layer_norm(x, w[f"{p}.ln3.g"], w[f"{p}.ln3.b"])
    return _residual(x, ffn(w, f"{p}.ffn", h), rate, drop_rng, f"{p}.ffn")


def pad_bias(lengths: np.ndarray, max_len: int) -> np.ndarray:
    """(B,1,1,T) additive attention bias: 0 on real positions, NEG_INF on pad."""
    idx = np.arange(max_len)
    mask = idx[None, :] < lengths[:, None]
    bias = np.where(mask, 0.0, NEG_INF).astype(np.float32)
    return bias[:, None, None, :]


@lru_cache(maxsize=16)
def causal_bias(t_len: int) -> np.ndarray:
    bias = np.triu(np.full((t_len, t_len), NEG_INF, dtype=np.float32), k=1)
    bias = bias[None, None, :, :]
    bias.setflags(write=False)
    return bias


def encode_batch(w: dict, config: ModelConfig, src_ids: np.ndarray,
                 src_bias: np.ndarray, drop_rng=None):
    """Encoder output (B, Ts, d) after the final layer norm."""
    x = embed(w, config, src_ids)
    rate = config.dropout_rate if drop_rng is not None else 0.0
    for i in range(config.n_encoder_layers):
        x = encoder_layer(w, i, x, src_bias, config.n_heads, rate, drop_rng)
    return layer_norm(x, w["enc.final_ln.g"], w["enc.final_ln.b"])


def decode_batch(w: dict, config: ModelConfig, enc, dec_in: np.ndarray,
                 src_bias: np.ndarray, drop_rng=None):
    """Teacher-forced decoder logits (B, Tt, vocab)."""
    x = embed(w, config, dec_in)
    rate = config.dropout_rate if drop_rng is not None else 0.0
    self_bias = causal_bias(dec_in.shape[1])
    for i in range(config.n_decoder_layers):
        cross_kv = key_values(w, f"dec.{i}.cross", enc, config.n_heads)
        x = decoder_layer(w, i, x, self_bias, cross_kv, src_bias, config.n_heads,
                          rate=rate, drop_rng=drop_rng)
    return output_logits(w, layer_norm(x, w["dec.final_ln.g"], w["dec.final_ln.b"]))


def encoder_input_ids(vocab: Vocab, text: str, src_lang: str) -> list[int]:
    return [vocab.lang_tag(src_lang)] + tokenize(text, vocab) + [vocab.eos]


def decoder_start_ids(vocab: Vocab, tgt_lang: str) -> list[int]:
    return [vocab.lang_tag(tgt_lang), vocab.bos]


def _pad_rows(rows) -> np.ndarray:
    """int64 array of the id lists, right-padded with pad=0 to the longest."""
    out = np.zeros((len(rows), max(map(len, rows))), dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


class OverLongError(ValueError):
    """A batch row over max_positions. index is its row; a caller that built
    the batch from a list of its own renumbers it to its position there."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index

    def __reduce__(self):   # a pool's worker pickles it with its index
        return type(self), (str(self), self.index)


def source_batch(vocab: Vocab, sources, max_positions: int):
    """(src_ids, src_len) of a nonempty list of (src_text, src_lang) pairs:
    the encoder inputs padded with pad=0, and their lengths."""
    srcs = [encoder_input_ids(vocab, text, lang) for text, lang in sources]
    for i, ((text, _), ids) in enumerate(zip(sources, srcs)):
        if len(ids) > max_positions:
            raise OverLongError(
                f"source exceeds max_positions={max_positions}: src={text[:40]!r}", i)
    return _pad_rows(srcs), np.array([len(s) for s in srcs], dtype=np.int64)


def build_batch(vocab: Vocab, records, max_positions: int):
    """Teacher-forcing batch arrays for a list of (src, tgt) records.

    Returns (src_ids, src_len, dec_in, dec_tgt) padded with pad=0; dec_tgt is
    dec_in shifted left with eos appended and position 0 ignored (pad).
    """
    src_ids, src_len = source_batch(
        vocab, [(r.src, r.src_lang) for r in records], max_positions)
    decs, tgts = [], []
    for i, r in enumerate(records):
        tgt_toks = tokenize(r.tgt, vocab)
        dec = decoder_start_ids(vocab, r.tgt_lang) + tgt_toks
        if len(dec) > max_positions:
            raise OverLongError(
                f"target exceeds max_positions={max_positions}: tgt={r.tgt[:40]!r}", i)
        decs.append(dec)
        tgts.append([vocab.pad] + tgt_toks + [vocab.eos])
    return src_ids, src_len, _pad_rows(decs), _pad_rows(tgts)


def batch_loss(t: dict, config: ModelConfig, vocab: Vocab, batch,
               label_smoothing: float = 0.0, drop_rng=None) -> Tensor:
    """Mean teacher-forced cross-entropy over non-pad target positions."""
    src_ids, src_len, dec_in, dec_tgt = batch
    src_bias = pad_bias(src_len, src_ids.shape[1])
    enc = encode_batch(t, config, src_ids, src_bias, drop_rng)
    logits = decode_batch(t, config, enc, dec_in, src_bias, drop_rng)
    flat = reshape(logits, (-1, config.vocab_size))
    return cross_entropy(flat, dec_tgt.reshape(-1), label_smoothing,
                         ignore_index=vocab.pad)


# ---------------------------------------------------------------------------
# Layer surgery and half-precision storage
# ---------------------------------------------------------------------------


def remove_layers(model: TranslationModel, side: str, indices) -> TranslationModel:
    """New model without the given layer indices on one side; survivors keep
    their relative order, every other tensor is copied bit-exactly."""
    if side not in (ENCODER, DECODER):
        raise ValueError(f"side must be '{ENCODER}' or '{DECODER}', got {side!r}")
    count = (model.config.n_encoder_layers if side == ENCODER
             else model.config.n_decoder_layers)
    indices = set(int(i) for i in indices)
    for i in indices:
        if not 0 <= i < count:
            raise ValueError(f"layer index {i} out of range for {side} stack of {count}")
    if len(indices) >= count:
        raise ValueError("cannot remove every layer from a stack")

    survivors = [i for i in range(count) if i not in indices]
    prefix = _SIDE_PREFIX[side]
    if side == ENCODER:
        new_config = replace(model.config, n_encoder_layers=len(survivors))
    else:
        new_config = replace(model.config, n_decoder_layers=len(survivors))

    new_params: dict[str, np.ndarray] = {}
    for name in parameter_names(new_config):
        if name.startswith(f"{prefix}.") and name.split(".")[1].isdigit():
            _, idx, rest = name.split(".", 2)
            old_name = f"{prefix}.{survivors[int(idx)]}.{rest}"
            new_params[name] = model.params[old_name].copy()
        else:
            new_params[name] = model.params[name].copy()
    return TranslationModel(new_config, model.vocab, new_params,
                            model.precision, dict(model.metadata))


def quantize_fp16(model: TranslationModel) -> TranslationModel:
    """Store every weight tensor as IEEE half (round-to-nearest-even).
    Compute paths upcast to float32; only storage shrinks. A tensor with a
    NaN, an infinity or a value beyond the fp16 range is an error."""
    if model.precision != "fp32":
        raise ValueError("model is already half precision")
    # not (max <= FP16_MAX) also holds for a NaN maximum
    bad = [name for name, a in model.params.items()
           if not np.abs(a).max(initial=0.0) <= FP16_MAX]
    if bad:
        raise ValueError(f"weights are not finite or exceed fp16 range in tensors: {bad}")
    new_params = {k: v.astype(np.float16) for k, v in model.params.items()}
    return TranslationModel(model.config, model.vocab, new_params,
                            "fp16", dict(model.metadata))
