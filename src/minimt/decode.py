"""Inference: teacher-forced scoring and an incremental decoder with a
per-layer KV cache, both running model.py's layer functions on float32
arrays, plus batched greedy/beam decoding with fully deterministic
tie-breaks.

Scoring: a hypothesis is ranked by cumulative log-probability during search
and by length-normalized score (logprob / length) at the end, where length
counts generated tokens including eos. Ties break by lower first differing
token index, then shorter hypothesis.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    TranslationModel,
    build_batch,
    compute_params,
    decode_batch,
    decoder_states,
    encode_batch,
    key_values,
    output_logits,
    pad_bias,
    source_batch,
)
from .parallel import map_ordered
from .tensor import fast_max
from .vocab import detokenize

# Teacher-forced passes run the model on this many rows at a time, keeping
# the whole batch's padded widths. Every inference op is row-wise (a batched
# matmul makes one gemm per row), so a row's bytes do not depend on the
# chunking, while a chunk's attention arrays stay cache-sized.
ROW_CHUNK = 32
# forced_token_logprobs hands each process this many rows of its batch at a
# time; a multiple of ROW_CHUNK, so the row chunks are the same as in one
# pass over the whole batch.
FORCED_BLOCK = 5 * ROW_CHUNK


@dataclass(frozen=True)
class BeamResult:
    """One decoded sample. tokens excludes the forced [lang tag, bos] prefix
    and the terminating eos."""

    tokens: tuple[int, ...]
    logprob: float
    score: float
    finished: bool


class NonFiniteLogitsError(ValueError):
    """The decoder produced a NaN or infinite logit, e.g. from a model with
    non-finite weights."""


def _log_softmax(x):
    z = x - fast_max(x)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _by_row_chunks(fn, *arrays):
    """fn applied to ROW_CHUNK-row slices of arrays (equal leading
    lengths), its results copied into one array as they come, so the
    output is never held twice."""
    n = len(arrays[0])
    if n <= ROW_CHUNK:
        return fn(*arrays)
    out = None
    for i in range(0, n, ROW_CHUNK):
        part = fn(*(a[i: i + ROW_CHUNK] for a in arrays))
        if out is None:
            out = np.empty((n, *part.shape[1:]), dtype=part.dtype)
        out[i: i + len(part)] = part
    return out


def encode_np(w, config, src_ids, src_len):
    """(enc (N,Ts,d), src pad bias (N,1,1,Ts)) from a model's
    compute_params."""
    bias = pad_bias(src_len, src_ids.shape[1])
    enc = _by_row_chunks(lambda ids, b: encode_batch(w, config, ids, b),
                         src_ids, bias)
    return enc, bias


def full_decoder_logits_np(model: TranslationModel, src_ids, src_len, dec_in):
    """Teacher-forced decoder logits (B, Tt, vocab), no cache, on float32
    arrays (used for forced scoring and output checks)."""
    w = compute_params(model)
    enc, bias = encode_np(w, model.config, src_ids, src_len)
    return _by_row_chunks(lambda e, ids, b: decode_batch(w, model.config, e, ids, b),
                          enc, dec_in, bias)


def forced_token_logprobs(model: TranslationModel, records) -> np.ndarray:
    """Length-normalized log-probability of each record's target given its
    source under the model (mean over target characters + eos). The batch
    is built once; its FORCED_BLOCK-row blocks, each at the whole batch's
    padded widths, are spread over the CPUs by map_ordered, and each returns
    only its per-record means, so no process holds the whole batch's
    logits."""
    src_ids, src_len, dec_in, dec_tgt = build_batch(
        model.vocab, records, model.config.max_positions)
    pad = model.vocab.pad
    positions = np.arange(dec_tgt.shape[1])

    def block_means(start: int) -> np.ndarray:
        rows = slice(start, start + FORCED_BLOCK)
        logp = _log_softmax(full_decoder_logits_np(
            model, src_ids[rows], src_len[rows], dec_in[rows]))
        out = np.zeros(len(logp), dtype=np.float64)
        for i, tgt in enumerate(dec_tgt[rows]):
            out[i] = logp[i, positions, tgt][tgt != pad].mean()
        return out

    return np.concatenate(map_ordered(block_means,
                                      range(0, len(records), FORCED_BLOCK)))


# ---------------------------------------------------------------------------
# Incremental decoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodedSources:
    """Encoder output for a batch of (src_text, src_lang, tgt_lang) sources.
    translate_batch reuses it for any model whose embedding and encoder
    weights are bit-equal to the encoding model's (encoder_key), e.g. every
    model remove_layers derives from it on the decoder side."""

    sources: tuple
    enc: np.ndarray                        # (N, Ts, d)
    bias: np.ndarray                       # (N, 1, 1, Ts) source pad bias
    encoder_key: str


def _encoder_key(model: TranslationModel) -> str:
    """Digest of everything the encoder output depends on: the head count
    and the embedding and enc.* arrays (names, dtypes and bytes)."""
    h = hashlib.blake2b(repr(model.config.n_heads).encode(), digest_size=16)
    for name, a in model.params.items():
        if name == "embedding" or name.startswith("enc."):
            h.update(f"{name}:{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a))
    return h.hexdigest()


def encode_sources(model: TranslationModel,
                   sources: list[tuple[str, str, str]]) -> EncodedSources:
    """Encode a nonempty batch of (src_text, src_lang, tgt_lang) triples."""
    if not sources:
        raise ValueError("no sources to encode")
    src_ids, src_len = source_batch(
        model.vocab, [(text, sl) for text, sl, _ in sources], model.config.max_positions)
    enc, bias = encode_np(compute_params(model), model.config, src_ids, src_len)
    return EncodedSources(tuple(sources), enc, bias, _encoder_key(model))


class _ModelStepper:
    """Row-parallel incremental decoder over an encoded batch, starting with
    R = n_samples * beam_size rows; reorder may drop rows. Holds per-layer
    self-attention caches and precomputed cross K/V per row."""

    def __init__(self, model: TranslationModel, encoded: EncodedSources,
                 beam_size: int):
        self.w = compute_params(model)
        self.config = model.config
        self.vocab = model.vocab
        n = len(encoded.sources)

        h = self.config.n_heads
        layers = range(self.config.n_decoder_layers)
        self.cross_kvs = [
            [np.repeat(a, beam_size, axis=0)
             for a in key_values(self.w, f"dec.{i}.cross", encoded.enc, h)]
            for i in layers]
        self.cross_bias = np.repeat(encoded.bias, beam_size, axis=0)
        self.sample_of_row = np.repeat(np.arange(n), beam_size)

        r = n * beam_size
        empty = np.zeros((r, h, 0, self.config.d_model // h), dtype=np.float32)
        self.caches = [[empty, empty] for _ in layers]

        # prime with the forced [tgt tag, bos] prefix (positions 0 and 1)
        tags = np.repeat([self.vocab.lang_tag(t) for _, _, t in encoded.sources],
                         beam_size)
        self._states(tags, 0)
        self._logits = self._step(np.full(r, self.vocab.bos, dtype=np.int64), 1)

    def prime_logits(self) -> np.ndarray:
        return self._logits

    def reorder(self, parent_rows: np.ndarray) -> None:
        """New row i continues old row parent_rows[i]; unlisted rows are
        dropped."""
        if np.array_equal(parent_rows, np.arange(len(self.sample_of_row))):
            return
        for cache in self.caches:
            cache[:] = [a[parent_rows] for a in cache]
        sample_of_row = self.sample_of_row[parent_rows]
        if not np.array_equal(sample_of_row, self.sample_of_row):
            for kv in self.cross_kvs:
                kv[:] = [a[parent_rows] for a in kv]
            self.cross_bias = self.cross_bias[parent_rows]
            self.sample_of_row = sample_of_row

    def advance(self, token_ids: np.ndarray, gen_index: int) -> np.ndarray:
        """Feed the tokens generated at step gen_index (decoder position
        2 + gen_index) and return next-token logits (R, vocab)."""
        return self._step(token_ids, 2 + gen_index)

    def _states(self, ids: np.ndarray, position: int) -> np.ndarray:
        return decoder_states(self.w, self.config, ids[:, None], None, self.cross_kvs,
                              self.cross_bias, start=position, caches=self.caches)

    def _step(self, ids: np.ndarray, position: int) -> np.ndarray:
        # (R, 1, d) @ (d, vocab) runs one gemm per row; a 2-D (R, d) gemm would
        # round a row differently depending on R, so a row's logits would
        # depend on which other rows share the batch
        logits = output_logits(self.w, self._states(ids, position))[:, 0, :]
        if not np.isfinite(logits).all():
            raise NonFiniteLogitsError(
                f"non-finite decoder logits at position {position}")
        return logits


def _normalized(logprob: float, length: int) -> float:
    return logprob / max(length, 1)


def _final_key(result_tokens: tuple, score: float):
    # higher score first, then lower first differing token, then shorter
    return (-score, result_tokens)


def beam_search_over_stepper(stepper, n_samples: int, vocab_size: int,
                             eos_id: int, beam_size: int, max_len: int) -> list[BeamResult]:
    """Core beam loop over any stepper exposing prime_logits / reorder /
    advance. Used by the model decoder and by table-driven test fixtures.
    The stepper holds only the rows of samples that still have an alive
    beam: reorder(parent_rows) may shrink the batch (new row i continues old
    row parent_rows[i]; unlisted rows are dropped), and advance takes token
    ids for, and returns logits of, the current rows only."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    k = beam_size
    r = n_samples * k

    cum = np.full((n_samples, k), -np.inf, dtype=np.float64)
    cum[:, 0] = 0.0
    tokens: list[tuple[int, ...]] = [() for _ in range(r)]
    alive = np.zeros((n_samples, k), dtype=bool)
    alive[:, 0] = True
    finished: list[list[tuple[tuple, float, float]]] = [[] for _ in range(n_samples)]

    # row i * k + slot of the stepper is that slot of sample live[i]
    live = np.arange(n_samples)
    logits = stepper.prime_logits()
    for g in range(max_len):
        logp = _log_softmax(logits.astype(np.float64))
        cand = cum[live, :, None] + logp.reshape(len(live), k, vocab_size)
        cand[~alive[live]] = -np.inf

        # dead slots default to row 0 of their own sample so cache gathers stay valid
        parent_rows = np.repeat(np.arange(len(live)) * k, k).reshape(len(live), k)
        next_ids = np.zeros((len(live), k), dtype=np.int64)
        new_cum = np.full((n_samples, k), -np.inf, dtype=np.float64)
        new_alive = np.zeros((n_samples, k), dtype=bool)
        new_tokens: list[tuple[int, ...]] = [() for _ in range(r)]

        for i, s in enumerate(live.tolist()):
            flat = cand[i].ravel()
            finite = np.isfinite(flat)
            n_finite = int(finite.sum())
            if n_finite == 0:
                continue
            kk = min(k, n_finite)
            part = np.argpartition(-flat, kk - 1)[:kk]
            threshold = flat[part].min()
            pool = np.flatnonzero(flat >= threshold)
            pool = sorted(
                pool.tolist(),
                key=lambda f: (-flat[f], tokens[s * k + f // vocab_size] + (f % vocab_size,)),
            )[:kk]
            slot = 0
            for f in pool:
                j, tok = divmod(f, vocab_size)
                seq = tokens[s * k + j] + (tok,)
                if tok == eos_id:
                    lp = float(flat[f])
                    finished[s].append((seq, lp, _normalized(lp, len(seq))))
                else:
                    parent_rows[i, slot] = i * k + j
                    next_ids[i, slot] = tok
                    new_cum[s, slot] = flat[f]
                    new_alive[s, slot] = True
                    new_tokens[s * k + slot] = seq
                    slot += 1

        cum, alive, tokens = new_cum, new_alive, new_tokens
        keep = alive[live].any(axis=1)
        live = live[keep]
        if g == max_len - 1 or not len(live):
            break
        stepper.reorder(parent_rows[keep].ravel())
        logits = stepper.advance(next_ids[keep].ravel(), g)

    results = []
    for s in range(n_samples):
        if finished[s]:
            seq, lp, score = min(finished[s], key=lambda e: _final_key(e[0], e[2]))
            results.append(BeamResult(seq[:-1], lp, score, True))
        else:
            best = None
            for j in range(k):
                if not alive[s, j]:
                    continue
                seq = tokens[s * k + j]
                lp = float(cum[s, j])
                score = _normalized(lp, len(seq))
                cand_res = (seq, lp, score)
                if best is None or _final_key(cand_res[0], cand_res[2]) < _final_key(best[0], best[2]):
                    best = cand_res
            if best is None:
                results.append(BeamResult((), -math.inf, -math.inf, False))
            else:
                results.append(BeamResult(best[0], best[1], best[2], False))
    return results


def translate_batch(model: TranslationModel, sources: list[tuple[str, str, str]],
                    beam_size: int = 3, max_len: int = 64, *,
                    encoded: EncodedSources | None = None) -> list[BeamResult]:
    """Decode a batch of (src_text, src_lang, tgt_lang) triples. encoded,
    from encode_sources, skips the encoder; it must come from these sources
    and from a model with this model's embedding and encoder weights."""
    if not sources:
        return []
    if 2 + max_len > model.config.max_positions:
        max_len = model.config.max_positions - 2
    if encoded is None:
        encoded = encode_sources(model, sources)
    elif encoded.sources != tuple(sources):
        raise ValueError("encoded was built from other sources")
    elif encoded.encoder_key != _encoder_key(model):
        raise ValueError("encoded was built by a model with other encoder weights")
    stepper = _ModelStepper(model, encoded, beam_size)
    # the stepper keeps only cross K/V, so an encoding made here need not be
    # held through the search (2.3 MB for filter's 600-row semantic batch)
    del encoded
    return beam_search_over_stepper(
        stepper, len(sources), len(model.vocab), model.vocab.eos,
        beam_size, max_len)


def translate_records(model: TranslationModel, records, beam_size: int = 3,
                      max_len: int = 64, *,
                      encoded: EncodedSources | None = None) -> list[str]:
    """Hypothesis strings for a list of parallel records (source side only);
    encoded is passed on to translate_batch."""
    results = translate_batch(
        model, [(r.src, r.src_lang, r.tgt_lang) for r in records],
        beam_size, max_len, encoded=encoded)
    return [detokenize(r.tokens, model.vocab) for r in results]
