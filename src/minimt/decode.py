"""Inference: teacher-forced scoring and an incremental decoder with a
per-layer KV cache, both running model.py's layer functions on float32
arrays, plus batched greedy/beam decoding with fully deterministic
tie-breaks. The incremental decoder also decodes every removal of one
layer in one batch (prune's importance pass), running the layers the
candidates share once per distinct token history.

Scoring: a hypothesis is ranked by cumulative log-probability during search
and by length-normalized score (logprob / length) at the end, where length
counts generated tokens including eos. Ties break by lower first differing
token index, then shorter hypothesis.

Early stop: a sample stops decoding once it has a finished hypothesis and
every live beam's cum / max_len is strictly below the best finished score.
This is exact: every step's log-probability is <= 0 (log-softmax), so a
descendant's logprob is at most cum, and its length at most max_len, so it
scores at most cum / max_len in the same float64 division. A tie on score
could still win on a lower token, hence the strict comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DECODER,
    ENCODER,
    TranslationModel,
    build_batch,
    compute_params,
    decode_batch,
    decoder_layer,
    embed,
    encode_batch,
    encoder_layer,
    key_values,
    output_logits,
    pad_bias,
    source_batch,
)
from .parallel import map_ordered
from .tensor import layer_norm, log_softmax
from .vocab import detokenize

# Teacher-forced passes run the model on this many rows at a time, keeping
# the whole batch's padded widths, and forced_token_logprobs spreads blocks
# of this many rows over the CPUs. Every inference op is row-wise (a batched
# matmul makes one gemm per row), so a row's bytes do not depend on the
# chunking, while a chunk's attention arrays stay cache-sized.
ROW_CHUNK = 32


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
    is built once; its ROW_CHUNK-row blocks, each at the whole batch's
    padded widths, are spread over the CPUs by map_ordered, and each returns
    only its per-record means, so no process holds the whole batch's
    logits."""
    src_ids, src_len, dec_in, dec_tgt = build_batch(
        model.vocab, records, model.config.max_positions)
    pad = model.vocab.pad
    positions = np.arange(dec_tgt.shape[1])

    def block_means(start: int) -> np.ndarray:
        rows = slice(start, start + ROW_CHUNK)
        logp = log_softmax(full_decoder_logits_np(
            model, src_ids[rows], src_len[rows], dec_in[rows]))
        return np.array([lp[positions, tgt][tgt != pad].mean()
                         for lp, tgt in zip(logp, dec_tgt[rows])], dtype=np.float64)

    return np.concatenate(map_ordered(block_means,
                                      range(0, len(records), ROW_CHUNK)))


# ---------------------------------------------------------------------------
# Incremental decoding
# ---------------------------------------------------------------------------


def _encode(model: TranslationModel, sources) -> tuple[np.ndarray, np.ndarray]:
    """encode_np of a nonempty batch of (src_text, src_lang, tgt_lang)
    triples."""
    src_ids, src_len = source_batch(
        model.vocab, [(text, sl) for text, sl, _ in sources], model.config.max_positions)
    return encode_np(compute_params(model), model.config, src_ids, src_len)


class _Run:
    """Neighbouring groups g0 .. g1 - 1 of a stepper that run one decoder
    layer at one depth: one decoder_layer call over their rows, with a
    self-attention cache and cross K/V rows of its own.

    In a stepper of two or more groups, a run keeps these per class: rows of
    one source with one token history, in groups that ran the same layers at
    every depth so far, hold equal states and caches, so the run computes
    one row per class and copies it to the class's rows. cls is each row's
    class, a slot in the cache and cross rows, and rep a row of each class,
    recomputed whenever cls changes; the cross rows live in the leading
    rows of buffers, which have a row per run row. regroup keeps the
    classes in two phases: compact, where the classes whose rows all left
    give their slots to the last live classes, then append splits, where a
    class whose rows took different tokens keeps its slot for the lowest
    token and each other token gets a new class after the live ones, with
    a copy of the class's cache and cross rows. A removal plan's trunk,
    the candidates j > l that run the parent's layer l at depth l, thus
    runs once per distinct history, and a sample's beam slots run once
    while they agree."""

    def __init__(self, g0: int, g1: int, layer: int, cross: list, src: np.ndarray,
                 owner: np.ndarray | None):
        """cross holds the layer's cross K/V per source and src each row's
        source. owner is each row's first group in the run with the same
        plan so far, or None for a run without classes."""
        self.g0, self.g1, self.layer = g0, g1, layer
        self.classes = owner is not None
        if self.classes:
            # each (owner, source) starts a class: all its rows hold the
            # [tgt tag, bos] prefix
            n = len(cross[0])
            key = owner * n + src
            present = np.zeros((int(owner.max()) + 1) * n, dtype=bool)
            present[key] = True
            first = np.flatnonzero(present) % n
            self._classes((np.cumsum(present) - 1)[key], len(first))
            self.buffers = [np.empty((len(src), *a.shape[1:]), dtype=a.dtype) for a in cross]
            for b, a in zip(self.buffers, cross):
                b[:len(first)] = a[first]
            self.cross = [b[:len(first)] for b in self.buffers]
            # the rows of the previous step each row continues; None when
            # they are the same rows
            self.parents = None
        else:
            self.cross = [a[src] for a in cross]
        k = self.cross[0]
        self.cache = [np.zeros((len(k), k.shape[1], 0, k.shape[3]), dtype=k.dtype)
                      for _ in range(2)]

    def _classes(self, cls: np.ndarray, m: int) -> None:
        """Take cls, each row's slot among m, and recompute rep from it."""
        self.cls = cls
        self.rep = np.empty(m, dtype=np.int64)
        self.rep[cls] = np.arange(len(cls))

    def regroup(self, tok: np.ndarray) -> None:
        """The classes once the run's rows take tok: a row's new class is
        (its parent row's class, its token). Compact, then append splits
        (class docstring), so a step moves cache and cross rows only for
        the classes that changed."""
        if self.parents is not None:
            # compact: the last live classes fill the slots of dead ones,
            # which frees the cache and cross rows past the live classes
            cls = self.cls[self.parents]
            self.parents = None
            alive = np.zeros(len(self.rep), dtype=bool)
            alive[cls] = True
            m = int(alive.sum())
            if m < len(alive):
                holes = np.flatnonzero(~alive[:m])
                movers = np.flatnonzero(alive[m:]) + m
                for a in (*self.buffers, *self.cache):
                    a[holes] = a[movers]
                slot = np.arange(len(alive))
                slot[movers] = holes
                cls = slot[cls]
            self._classes(cls, m)
        m = len(self.rep)
        # classes of one row each cannot split
        if m < len(self.cls) and (tok[self.rep][self.cls] != tok).any():
            # append splits: each (class, token) pair's class; a pair after
            # its class's first splits off
            order = np.lexsort((tok, self.cls))
            c, t = self.cls[order], tok[order]
            first = np.ones(len(order), dtype=bool)
            first[1:] = (c[1:] != c[:-1]) | (t[1:] != t[:-1])
            pair = c[first]
            split = np.zeros(len(pair), dtype=bool)
            split[1:] = pair[1:] == pair[:-1]
            parents = pair[split]
            pair[split] = np.arange(m, m + len(parents))
            cls = np.empty_like(self.cls)
            cls[order] = pair[np.cumsum(first) - 1]
            n = m + len(parents)
            if n > len(self.cache[0]):
                # decoder_layer returns caches of exactly the class count,
                # so only the rows of classes that left this step are free
                self.cache = [np.concatenate([a, np.empty((n - len(a), *a.shape[1:]), a.dtype)])
                              for a in self.cache]
            for a in (*self.buffers, *self.cache):
                a[m: n] = a[parents]
            self._classes(cls, n)
        self.cache = [a[:len(self.rep)] for a in self.cache]
        self.cross = [b[:len(self.rep)] for b in self.buffers]


class _ModelStepper:
    """Row-parallel incremental decoder over n sources, given their
    encoding (encode_np's enc and bias), under a layer plan: an int array
    with one row per group and one column per decoder depth. The rows are
    group-major, R = groups * n * beam_size of them at the start: row
    (g * n + s) * beam_size + b is beam slot b of group g's copy of source
    s, and at depth l it runs the model's decoder layer plan[g, l]. The
    default plan, one group running layer l at depth l, is the model as it
    is; a group planned [0, .., j - 1, j + 1, ..] decodes like the model
    without decoder layer j. At each depth, neighbouring groups that run
    one layer form a _Run: one decoder_layer call, with a self-attention
    cache and cross K/V rows of its own. In a stepper of two or more groups
    a run computes one row per class of its rows, rows of one source and
    one token history in groups planned alike so far. Under a removal plan
    the trunk at depth l, the candidates j > l that run the parent's layer
    l, so runs once per distinct history where each candidate's row used
    to run it; the default plan keeps no classes. Every row shares one
    padded source width and every op is row-wise, so a class's row has the
    bytes each of its rows would have (in a batch of another padded width a
    row's bytes can differ). reorder may drop rows; every new row continues
    a row of its own sample, in sample order, and no sample has more rows
    than it started with. Each reorder is followed by an advance, as both
    search loops call them, so a run holds one step's parent rows at a
    time."""

    def __init__(self, model: TranslationModel, tgt_langs, encoding,
                 beam_size: int, plan: np.ndarray | None = None):
        self.w = compute_params(model)
        self.config = model.config
        if plan is None:
            plan = np.arange(self.config.n_decoder_layers)[None]
        enc, bias = encoding
        self.n_sources, groups = len(enc), len(plan)

        h = self.config.n_heads
        src_of_row = np.tile(np.repeat(np.arange(self.n_sources), beam_size), groups)
        self.sample_of_row = np.repeat(np.arange(groups * self.n_sources), beam_size)
        self.bounds = self._group_bounds(self.sample_of_row, groups)
        self.cross_bias = bias[src_of_row]
        # each depth's runs; a layer's cross K/V per source are held until
        # its last depth. Rows are gathered from C-order copies, as
        # np.repeat would give them: a gather keeps split_heads' transposed
        # order, which rounds the attention differently
        last_depth = {layer: depth for depth, layers in enumerate(plan.T.tolist())
                      for layer in layers}
        cross = {}
        self.runs = []
        for depth, layers in enumerate(plan.T.tolist()):
            starts = [g for g in range(groups) if g == 0 or layers[g] != layers[g - 1]]
            runs = []
            for g0, g1 in zip(starts, starts[1:] + [groups]):
                layer = layers[g0]
                if layer not in cross:
                    cross[layer] = [np.ascontiguousarray(a) for a in
                                    key_values(self.w, f"dec.{layer}.cross", enc, h)]
                owner = None
                if groups > 1:
                    prefixes = plan[g0:g1, :depth + 1].tolist()
                    owner = np.repeat([prefixes.index(p) for p in prefixes],
                                      self.n_sources * beam_size)
                runs.append(_Run(g0, g1, layer, cross[layer],
                                 src_of_row[self.bounds[g0]: self.bounds[g1]], owner))
            self.runs.append(runs)
            for layer in set(layers):
                if last_depth[layer] == depth:
                    del cross[layer]

        # prime with the forced [tgt tag, bos] prefix (positions 0 and 1)
        tags = np.tile(np.repeat([model.vocab.lang_tag(t) for t in tgt_langs],
                                 beam_size), groups)
        self._states(tags, 0)
        self._logits = self._step(np.full(len(tags), model.vocab.bos, dtype=np.int64), 1)

    def _group_bounds(self, sample_of_row: np.ndarray, groups: int) -> list[int]:
        """First row of each group, then the row count."""
        return np.searchsorted(sample_of_row,
                               np.arange(groups + 1) * self.n_sources).tolist()

    def prime_logits(self) -> np.ndarray:
        return self._logits

    def reorder(self, parent_rows: np.ndarray) -> None:
        """New row i continues old row parent_rows[i]; unlisted rows are
        dropped."""
        if np.array_equal(parent_rows, np.arange(len(self.sample_of_row))):
            return
        sample_of_row = self.sample_of_row[parent_rows]
        bounds = self._group_bounds(sample_of_row, len(self.bounds) - 1)
        plain = []
        for run in (run for runs in self.runs for run in runs):
            rows = parent_rows[bounds[run.g0]: bounds[run.g1]] - self.bounds[run.g0]
            if not run.classes:
                run.cache = [a[rows] for a in run.cache]
                plain.append((run, rows))
            elif len(rows) != len(run.cls) or (rows != np.arange(len(rows))).any():
                run.parents = rows
        # a row's cross rows are its sample's, so they change only when
        # samples leave; gathered after the caches shrank, which keeps the
        # peak lower
        if not np.array_equal(sample_of_row, self.sample_of_row):
            for run, rows in plain:
                run.cross = [a[rows] for a in run.cross]
            self.cross_bias = self.cross_bias[parent_rows]
        self.sample_of_row, self.bounds = sample_of_row, bounds

    def advance(self, token_ids: np.ndarray, gen_index: int) -> np.ndarray:
        """Feed the tokens generated at step gen_index (decoder position
        2 + gen_index) and return next-token logits (R, vocab)."""
        return self._step(token_ids, 2 + gen_index)

    def _states(self, ids: np.ndarray, position: int) -> np.ndarray:
        w, h = self.w, self.config.n_heads
        x = embed(w, self.config, ids[:, None], position)
        for runs in self.runs:
            parts = []
            for run in runs:
                # a run whose rows have all left still runs, on zero rows,
                # so that every cache advances a step
                rows = slice(self.bounds[run.g0], self.bounds[run.g1])
                xs, bias = x[rows], self.cross_bias[rows]
                if run.classes:
                    run.regroup(ids[rows])
                    xs, bias = xs[run.rep], bias[run.rep]
                out = decoder_layer(w, run.layer, xs, None, run.cross, bias, h, run.cache)
                parts.append(out[run.cls] if run.classes else out)
            x = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return layer_norm(x, w["dec.final_ln.g"], w["dec.final_ln.b"])

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


def _result(tokens, logprob: float, finished: bool) -> BeamResult:
    """A BeamResult scored by the module docstring's rule: the length
    counts a finished hypothesis's eos, which tokens leaves out."""
    tokens = tuple(tokens)
    return BeamResult(tokens, logprob, _normalized(logprob, len(tokens) + finished), finished)


def _final_key(result_tokens: tuple, score: float):
    # higher score first, then lower first differing token, then shorter
    return (-score, result_tokens)


def beam_search_over_stepper(stepper, n_samples: int, vocab_size: int,
                             eos_id: int, beam_size: int, max_len: int) -> list[BeamResult]:
    """Core beam loop over any stepper exposing prime_logits / reorder /
    advance. Used by the model decoder and by table-driven test fixtures.
    The stepper holds only the rows of samples whose result can still
    change: a sample leaves once none of its beams is alive, or once no
    live beam can beat its best finished hypothesis (the module docstring's
    early stop). reorder(parent_rows) may shrink the batch (new row i
    continues old row parent_rows[i]; unlisted rows are dropped), and
    advance takes token ids for, and returns logits of, the current rows
    only."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if beam_size == 1:
        return _greedy_search(stepper, n_samples, eos_id, max_len)
    return _beam_loop(stepper, n_samples, vocab_size, eos_id, beam_size, max_len)


def _greedy_search(stepper, n_samples: int, eos_id: int,
                   max_len: int) -> list[BeamResult]:
    """Beam 1 as array ops: each live row takes the first maximum of its
    cumulative log-probabilities, which is the lowest token id among equal
    scores, as _beam_loop's tie-break picks it. A row without a finite
    score leaves the batch unfinished."""
    tokens = np.zeros((n_samples, max_len), dtype=np.int64)
    length = np.zeros(n_samples, dtype=np.int64)
    cum = np.zeros(n_samples, dtype=np.float64)
    finished = np.zeros(n_samples, dtype=bool)

    # row i of the stepper is sample live[i]
    live = np.arange(n_samples)
    logits = stepper.prime_logits()
    for g in range(max_len):
        cand = cum[live, None] + log_softmax(logits.astype(np.float64))
        tok = cand.argmax(axis=1)
        best = cand[np.arange(len(live)), tok]
        tokens[live, g] = tok
        cum[live] = best
        length[live] = g + 1
        scored = np.isfinite(best)
        done = scored & (tok == eos_id)
        finished[live[done]] = True
        keep = scored & ~done
        live = live[keep]
        if g == max_len - 1 or not len(live):
            break
        stepper.reorder(np.flatnonzero(keep))
        logits = stepper.advance(tok[keep], g)

    # a row that left unscored ends empty, at -inf
    unscored = ~finished
    unscored[live] = False
    length[unscored], cum[unscored] = 0, -np.inf
    return [_result(tokens[s, :length[s] - finished[s]].tolist(), float(cum[s]),
                    bool(finished[s])) for s in range(n_samples)]


def _group_position(groups: np.ndarray) -> np.ndarray:
    """Each element's position among the equal elements of a sorted array."""
    return np.arange(len(groups)) - np.searchsorted(groups, groups)


def _beam_loop(stepper, n_samples: int, vocab_size: int, eos_id: int,
               beam_size: int, max_len: int) -> list[BeamResult]:
    """beam_search_over_stepper for beams >= 2, every live sample at once.
    A step's candidates all extend alive beams of one length, so the lower
    first differing token is the lower (parent's lexicographic rank within
    its sample, token): one lexsort orders the candidates that reach their
    sample's k-th highest score by (sample, -score, parent rank, token),
    and each sample takes its first k. A sample stops once every live beam
    has cum / max_len below its best finished score (module docstring)."""
    k, v = beam_size, vocab_size
    # each sample's best finished hypothesis, (its _final_key over tokens
    # with eos, its BeamResult), and its score
    best: list[tuple | None] = [None] * n_samples
    best_score = np.full(n_samples, -np.inf)

    # row i * k + slot of the stepper and of tokens is that slot of sample
    # live[i]; a dead slot's cum is -inf, and an alive slot's rank is its
    # lexicographic rank among its sample's alive slots
    live = np.arange(n_samples)
    cum = np.full((n_samples, k), -np.inf)
    cum[:, 0] = 0.0
    rank = np.zeros((n_samples, k), dtype=np.int64)
    tokens = np.zeros((n_samples * k, max_len), dtype=np.int64)
    logits = stepper.prime_logits()
    for g in range(max_len):
        n = len(live)
        cand = cum[:, :, None] + log_softmax(logits.astype(np.float64)).reshape(n, k, v)
        cand = cand.reshape(n, k * v)
        cand[~np.isfinite(cand)] = -np.inf
        # a sample's k-th highest score; -inf when it has fewer than k
        # finite candidates, which then all take part
        threshold = np.partition(cand, k * v - k, axis=1)[:, k * v - k]
        i, f = np.nonzero((cand >= threshold[:, None]) & (cand > -np.inf))
        j, tok = np.divmod(f, v)
        lp = cand[i, f]
        order = np.lexsort((tok, rank[i, j], -lp, i))
        first_k = order[_group_position(i[order]) < k]
        i, j, tok, lp = i[first_k], j[first_k], tok[first_k], lp[first_k]
        rows = i * k + j

        ends = tok == eos_id
        for t in np.flatnonzero(ends).tolist():
            s = int(live[i[t]])
            result = _result(tokens[rows[t], :g].tolist(), float(lp[t]), True)
            key = _final_key((*result.tokens, eos_id), result.score)
            if best[s] is None or key < best[s][0]:
                best[s] = (key, result)
                best_score[s] = result.score

        # alive beams take their sample's slots in selection order; dead
        # slots continue row 0 of their own sample so cache gathers stay valid
        grows = ~ends
        i, j, tok = i[grows], j[grows], tok[grows]
        slot = _group_position(i)
        cum = np.full((n, k), -np.inf)
        cum[i, slot] = lp[grows]
        parent_rows = np.repeat(np.arange(n) * k, k).reshape(n, k)
        parent_rows[i, slot] = rows[grows]
        next_ids = np.zeros((n, k), dtype=np.int64)
        next_ids[i, slot] = tok
        order = np.lexsort((tok, rank[i, j], i))
        rank = np.zeros((n, k), dtype=np.int64)
        rank[i[order], slot[order]] = _group_position(i[order])
        tokens = tokens[parent_rows.ravel()]
        tokens[:, g] = next_ids.ravel()

        # slot 0 holds a sample's highest cum
        bound = cum[:, 0] / max_len
        keep = (bound > -np.inf) & (bound >= best_score[live])
        live, cum, rank = live[keep], cum[keep], rank[keep]
        tokens = tokens.reshape(n, k, max_len)[keep].reshape(-1, max_len)
        if g == max_len - 1 or not len(live):
            break
        stepper.reorder(parent_rows[keep].ravel())
        logits = stepper.advance(next_ids[keep].ravel(), g)

    results = [b[1] if b else _result((), -math.inf, False) for b in best]
    # samples still live here reached max_len
    for r, s in enumerate(live.tolist()):
        if best[s] is None:
            results[s] = min((_result(tokens[r * k + j].tolist(), float(cum[r, j]), False)
                              for j in np.flatnonzero(cum[r] > -np.inf).tolist()),
                             key=lambda res: _final_key(res.tokens, res.score))
    return results


def _search(model: TranslationModel, stepper: _ModelStepper, n_samples: int,
            beam_size: int, max_len: int) -> list[BeamResult]:
    """beam_search_over_stepper over a model's stepper; max_len is cut to
    the positions left after the [tgt tag, bos] prefix."""
    return beam_search_over_stepper(
        stepper, n_samples, len(model.vocab), model.vocab.eos, beam_size,
        min(max_len, model.config.max_positions - 2))


def translate_batch(model: TranslationModel, sources: list[tuple[str, str, str]],
                    beam_size: int = 3, max_len: int = 64) -> list[BeamResult]:
    """Decode a batch of (src_text, src_lang, tgt_lang) triples."""
    if not sources:
        return []
    # the stepper keeps only cross K/V, so the encoding is not held through
    # the search (2.3 MB for filter's 600-row semantic batch)
    stepper = _ModelStepper(model, [t for _, _, t in sources],
                            _encode(model, sources), beam_size)
    return _search(model, stepper, len(sources), beam_size, max_len)


def _hypotheses(results: list[BeamResult], vocab) -> list[str]:
    return [detokenize(r.tokens, vocab) for r in results]


def translate_records(model: TranslationModel, records, beam_size: int = 3,
                      max_len: int = 64) -> list[str]:
    """Hypothesis strings for a list of parallel records (source side only)."""
    return _hypotheses(translate_batch(
        model, [(r.src, r.src_lang, r.tgt_lang) for r in records],
        beam_size, max_len), model.vocab)


def _encoder_stack(w: dict, config, x: np.ndarray, bias: np.ndarray, layers) -> np.ndarray:
    """x (N, Ts, d) through the given encoder layers, ROW_CHUNK rows at a
    time."""
    def run(x, bias):
        for i in layers:
            x = encoder_layer(w, i, x, bias, config.n_heads)
        return x
    return _by_row_chunks(run, x, bias)


def removal_translations(model: TranslationModel, side: str,
                         sources: list[tuple[str, str, str]], layers,
                         beam_size: int, max_len: int) -> list[list[str]]:
    """For each layer j of side in layers (ascending), the hypotheses of
    remove_layers(model, side, {j}) on a nonempty batch of (src_text,
    src_lang, tgt_lang) triples, as translate_records gives them, all
    decoded in one stepper. The decoder side encodes the sources once: at
    depth l the candidates j <= l run layer l + 1 and the others layer l,
    the parent's trunk, which the stepper runs once per distinct token
    history. The encoder side runs the parent's encoder layers below the
    last of layers once, keeping each layer's input; candidate j's encoding
    is layers j + 1 .. applied to layer j's input, then the final layer
    norm, decoded with the model's own decoder."""
    if side not in (ENCODER, DECODER):
        raise ValueError(f"side must be '{ENCODER}' or '{DECODER}', got {side!r}")
    tgt_langs = [t for _, _, t in sources]
    config = model.config
    if side == DECODER:
        depths = np.arange(config.n_decoder_layers - 1)
        stepper = _ModelStepper(model, tgt_langs, _encode(model, sources), beam_size,
                                depths + (depths >= np.asarray(layers)[:, None]))
    else:
        w = compute_params(model)
        src_ids, src_len = source_batch(
            model.vocab, [(text, sl) for text, sl, _ in sources], config.max_positions)
        bias = pad_bias(src_len, src_ids.shape[1])
        inputs = [embed(w, config, src_ids)]
        for i in range(layers[-1]):
            inputs.append(_encoder_stack(w, config, inputs[-1], bias, [i]))
        encodings = [layer_norm(_encoder_stack(w, config, inputs[j], bias,
                                               range(j + 1, config.n_encoder_layers)),
                                w["enc.final_ln.g"], w["enc.final_ln.b"])
                     for j in layers]
        stepper = _ModelStepper(model, tgt_langs * len(layers),
                                (np.concatenate(encodings),
                                 np.concatenate([bias] * len(layers))), beam_size)
    hyps = _hypotheses(_search(model, stepper, len(layers) * len(sources),
                               beam_size, max_len), model.vocab)
    return [hyps[i: i + len(sources)] for i in range(0, len(hyps), len(sources))]
