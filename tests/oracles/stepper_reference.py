"""Reference incremental decoder: decode._ModelStepper as it was before its
shared runs ran once per distinct (source, token history) class. Every row
runs every layer of its plan, with its own self-attention cache row, and
every layer's cross K/V is tiled per row. The tests require the stepper to
return equal logits, byte for byte, at every step.
"""

import numpy as np

from minimt.decode import NonFiniteLogitsError
from minimt.model import compute_params, decoder_layer, embed, key_values, output_logits
from minimt.tensor import layer_norm


class ReferenceStepper:
    """Row-parallel incremental decoder over n sources, given their
    encoding, under a layer plan (one row per group, one column per decoder
    depth); row (g * n + s) * beam_size + b is beam slot b of group g's
    copy of source s and runs layer plan[g, l] at depth l."""

    def __init__(self, model, tgt_langs, encoding, beam_size: int, plan=None):
        self.w = compute_params(model)
        self.config = model.config
        if plan is None:
            plan = np.arange(self.config.n_decoder_layers)[None]
        enc, bias = encoding
        self.n_sources, groups = len(enc), len(plan)

        h = self.config.n_heads
        src_of_row = np.tile(np.repeat(np.arange(self.n_sources), beam_size), groups)
        # gathered from C-order copies, as np.repeat would give them
        self.cross_kvs = {
            i: [np.ascontiguousarray(a)[src_of_row]
                for a in key_values(self.w, f"dec.{i}.cross", enc, h)]
            for i in set(plan.ravel().tolist())}
        self.cross_bias = bias[src_of_row]
        self.sample_of_row = np.repeat(np.arange(groups * self.n_sources), beam_size)
        self.bounds = self._group_bounds(self.sample_of_row, groups)

        # each depth's runs, as (first group, end group, layer)
        self.runs = []
        for layers in plan.T.tolist():
            starts = [g for g in range(groups) if g == 0 or layers[g] != layers[g - 1]]
            self.runs.append([(g0, g1, layers[g0])
                              for g0, g1 in zip(starts, starts[1:] + [groups])])
        empty = np.zeros((len(src_of_row), h, 0, self.config.d_model // h),
                         dtype=np.float32)
        self.caches = [[[empty[self.bounds[g0]: self.bounds[g1]]] * 2
                        for g0, g1, _ in runs] for runs in self.runs]

        tags = np.tile(np.repeat([model.vocab.lang_tag(t) for t in tgt_langs],
                                 beam_size), groups)
        self._states(tags, 0)
        self._logits = self._step(np.full(len(tags), model.vocab.bos, dtype=np.int64), 1)

    def _group_bounds(self, sample_of_row, groups: int) -> list[int]:
        return np.searchsorted(sample_of_row,
                               np.arange(groups + 1) * self.n_sources).tolist()

    def prime_logits(self):
        return self._logits

    def reorder(self, parent_rows) -> None:
        if np.array_equal(parent_rows, np.arange(len(self.sample_of_row))):
            return
        sample_of_row = self.sample_of_row[parent_rows]
        bounds = self._group_bounds(sample_of_row, len(self.bounds) - 1)
        for runs, caches in zip(self.runs, self.caches):
            for (g0, g1, _), cache in zip(runs, caches):
                rows = parent_rows[bounds[g0]: bounds[g1]] - self.bounds[g0]
                cache[:] = [a[rows] for a in cache]
        if not np.array_equal(sample_of_row, self.sample_of_row):
            for kv in self.cross_kvs.values():
                kv[:] = [a[parent_rows] for a in kv]
            self.cross_bias = self.cross_bias[parent_rows]
            self.sample_of_row = sample_of_row
            self.bounds = bounds

    def advance(self, token_ids, gen_index: int):
        return self._step(token_ids, 2 + gen_index)

    def _states(self, ids, position: int):
        w, h = self.w, self.config.n_heads
        x = embed(w, self.config, ids[:, None], position)
        for runs, caches in zip(self.runs, self.caches):
            parts = []
            for (g0, g1, layer), cache in zip(runs, caches):
                rows = slice(self.bounds[g0], self.bounds[g1])
                parts.append(decoder_layer(
                    w, layer, x[rows], None, [a[rows] for a in self.cross_kvs[layer]],
                    self.cross_bias[rows], h, cache))
            x = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return layer_norm(x, w["dec.final_ln.g"], w["dec.final_ln.b"])

    def _step(self, ids, position: int):
        logits = output_logits(self.w, self._states(ids, position))[:, 0, :]
        if not np.isfinite(logits).all():
            raise NonFiniteLogitsError(
                f"non-finite decoder logits at position {position}")
        return logits
