"""Per-layer tracing from outside the toolkit.

A traced run replaces public names in minimt's modules (and the decoder
stepper's advance/reorder methods) with wrappers that record one span per
call: name, start, end, parent span and run id, plus a few counts taken at
the same boundary (rows, tokens, kept records). Spans stay in memory and are
written out when the run ends; per-layer metrics are derived from them after
the run, self times included. Untraced runs install nothing, so tracing
costs nothing when it is off.

Patching a module attribute only reaches callers that look the name up at
call time, which is how minimt's modules call each other; each entry below
names the module whose global the caller reads.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict

import numpy as np

BEAMS = (1, 3)
DECODE_FIELDS = ("encode_s", "encode_rows", "init_s", "step_s", "row_steps",
                 "reorder_s", "reorder_identity_ratio", "search_s",
                 "tokens_per_row_step")
FILTER_STAGES = ("rule_based", "language_detection", "semantic",
                 "quality_estimation")
# Tensor ops model.py imports; counted, not spanned (there are thousands).
TENSOR_OPS = ("add", "cross_entropy", "dropout", "embedding", "layer_norm",
              "matmul", "mul", "relu", "reshape", "softmax", "transpose")


def _decode_unit(field_name):
    if field_name.endswith("_s"):
        return "s", "lower"
    if field_name == "tokens_per_row_step":
        return "ratio", "higher"
    if field_name.endswith("_ratio"):
        return "ratio", "lower"
    return "count", "lower"


# name -> (unit, better). Times are per traced operation; a layer the
# workload never enters reads 0.
PER_LAYER = {
    **{f"decode.beam{b}.{f}": _decode_unit(f) for b in BEAMS for f in DECODE_FIELDS},
    "decode.forced_s": ("s", "lower"),
    "bench.batches": ("count", "lower"),
    "bench.fill_ratio": ("ratio", "higher"),
    "metrics.chrf_s": ("s", "lower"),
    "training.forward_s": ("s", "lower"),
    "training.backward_s": ("s", "lower"),
    "training.eval_s": ("s", "lower"),
    "training.steps": ("count", "higher"),
    "optim.adam_s": ("s", "lower"),
    "model.build_batch_s": ("s", "lower"),
    "tensor.ops_per_step": ("count", "lower"),
    "compress.importance_s": ("s", "lower"),
    "compress.candidates": ("count", "higher"),
    "compress.surgery_s": ("s", "lower"),
    "compress.fingerprint_s": ("s", "lower"),
    "compress.encode_useful_ratio": ("ratio", "higher"),
    "model.quantize_s": ("s", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    **{f"filtering.{s}_s": ("s", "lower") for s in FILTER_STAGES},
    **{f"filtering.{s}.kept_ratio": ("ratio", "higher") for s in FILTER_STAGES},
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Span recorder. A span is [name, start, end, parent index, run id,
    attrs]; parent is -1 at the top level."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.tensor_ops = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_call=None, on_return=None):
        def traced(*args, **kwargs):
            attrs = on_call(*args, **kwargs) if on_call else {}
            record = [name, self.clock(), 0.0,
                      self.stack[-1] if self.stack else -1, self.run_id, attrs]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                self.stack.pop()
            if on_return:
                on_return(attrs, out)
            return out
        return traced

    def patch(self, owner, attr, name, on_call=None, on_return=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_call, on_return))

    def count_calls(self, owner, attr):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))

        def counted(*args, **kwargs):
            self.tensor_ops += 1
            return original(*args, **kwargs)
        setattr(owner, attr, counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self) -> list[list]:
        return [[n, s, e, p, r] for n, s, e, p, r, _ in self.spans]


def _encode_key(model_or_w, config, src_ids, src_len):
    """Identity of one encoder call: encoder weights plus padded source."""
    w = model_or_w if isinstance(model_or_w, dict) else model_or_w.params
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(w):
        if name == "embedding" or name.startswith("enc."):
            h.update(name.encode())
            h.update(w[name].tobytes())
    h.update(src_ids.tobytes())
    h.update(src_len.tobytes())
    return {"rows": int(src_ids.shape[0]), "key": h.hexdigest()}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from minimt import (bench, checkpoint, compress, decode, filtering, metrics,
                        model, training)

    def beam_of(_model, _sources, beam_size=3, *_a, **_k):
        return {"beam": int(beam_size)}

    def output_tokens(attrs, results):
        attrs["tokens"] = sum(len(r.tokens) for r in results)

    def corpus_attrs(model_, records, cfg, *_a, **_k):
        count = bench.encoder_token_count(model_.vocab)
        return {"src_tokens": sum(count(r) for r in records),
                "budget": cfg.batch_token_budget}

    def n_batches(attrs, run):
        attrs["batches"] = run.n_batches

    def stage_counts(attrs, out):
        attrs["n_in"], attrs["n_kept"] = out[1].n_in, out[1].n_kept

    def reorder_attrs(stepper, parent_rows):
        return {"identity": bool(np.array_equal(parent_rows,
                                                np.arange(len(parent_rows))))}

    def advance_rows(stepper, token_ids, gen_index):
        return {"rows": len(token_ids)}

    tracer.patch(decode, "translate_batch", "translate_batch", beam_of, output_tokens)
    tracer.patch(bench, "translate_batch", "translate_batch", beam_of, output_tokens)
    tracer.patch(decode, "encode_np", "encode_np", _encode_key)
    tracer.patch(decode, "beam_search_over_stepper", "search")
    tracer.patch(decode._ModelStepper, "advance", "advance", advance_rows)
    tracer.patch(decode._ModelStepper, "reorder", "reorder", reorder_attrs)
    tracer.patch(decode, "forced_token_logprobs", "forced")
    tracer.patch(bench, "decode_corpus", "decode_corpus", corpus_attrs, n_batches)
    tracer.patch(compress, "chrf_pp", "chrf")
    tracer.patch(metrics, "chrf_pp", "chrf")
    tracer.patch(compress, "iterative_prune", "iterative_prune")
    tracer.patch(compress, "layer_importance_eval", "importance")
    tracer.patch(compress, "remove_layers", "remove_layers")
    tracer.patch(model.TranslationModel, "fingerprint", "fingerprint")
    tracer.patch(model, "quantize_fp16", "quantize")
    tracer.patch(checkpoint, "save_checkpoint", "checkpoint_save")
    tracer.patch(checkpoint, "load_checkpoint", "checkpoint_load")
    tracer.patch(training, "batch_loss", "batch_loss")
    tracer.patch(training, "backward", "backward")
    tracer.patch(training, "adam_step", "adam_step")
    tracer.patch(training, "build_batch", "build_batch")
    tracer.patch(training, "corpus_loss", "eval")
    for stage in FILTER_STAGES:
        fn = "rule_based_filter" if stage == "rule_based" else f"{stage}_filter"
        tracer.patch(filtering, fn, f"filter.{stage}", on_return=stage_counts)
    for op in TENSOR_OPS:
        tracer.count_calls(model, op)


def per_layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Every per-layer metric, averaged per traced operation; a layer the
    workload never entered reads 0."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p]
            p = spans[p][3]

    total = defaultdict(float)
    encode_keys: set[str] = set()
    prune_encodes = 0
    for i, (name, start, end, _, _, attrs) in enumerate(spans):
        dur = end - start
        up = list(ancestors(i))
        up_names = {s[0] for s in up}
        beam = attrs.get("beam") or next(
            (s[5]["beam"] for s in up if s[0] == "translate_batch"), None)
        d = f"decode.beam{beam}." if beam in BEAMS else None
        if name == "translate_batch" and d:
            total[d + "init_s"] += dur - child_time[i]
            total[d + "tokens"] += attrs["tokens"]
        elif name == "encode_np":
            if d:
                total[d + "encode_s"] += dur
                total[d + "encode_rows"] += attrs["rows"]
            if "iterative_prune" in up_names:
                prune_encodes += 1
                encode_keys.add(attrs["key"])
        elif name == "search" and d:
            total[d + "search_s"] += dur - child_time[i]
        elif name == "advance" and d:
            total[d + "step_s"] += dur
            total[d + "row_steps"] += attrs["rows"]
        elif name == "reorder" and d:
            total[d + "reorder_s"] += dur
            total[d + "reorders"] += 1
            total[d + "identity_reorders"] += attrs["identity"]
        elif name == "forced":
            total["decode.forced_s"] += dur
        elif name == "decode_corpus":
            total["corpus_calls"] += 1
            total["bench.batches"] += attrs["batches"]
            total["src_tokens"] += attrs["src_tokens"]
            total["budget_tokens"] += attrs["batches"] * attrs["budget"]
        elif name == "chrf":
            total["metrics.chrf_s"] += dur
        elif name == "importance":
            total["compress.importance_s"] += dur
        elif name == "remove_layers":
            total["compress.surgery_s"] += dur
            if "importance" in up_names:
                total["compress.candidates"] += 1
        elif name == "fingerprint":
            total["compress.fingerprint_s"] += dur
        elif name == "quantize":
            total["model.quantize_s"] += dur
        elif name == "checkpoint_save":
            total["checkpoint.save_s"] += dur
        elif name == "checkpoint_load":
            total["checkpoint.load_s"] += dur
        elif name == "batch_loss":
            total["loss_calls"] += 1
            if "eval" not in up_names:
                total["training.forward_s"] += dur
        elif name == "backward":
            total["training.backward_s"] += dur
        elif name == "adam_step":
            total["optim.adam_s"] += dur
            total["training.steps"] += 1
        elif name == "build_batch":
            total["model.build_batch_s"] += dur
        elif name == "eval":
            total["training.eval_s"] += dur
        elif name.startswith("filter."):
            stage = name[len("filter."):]
            total[f"filtering.{stage}_s"] += dur
            total[f"filtering.{stage}.n_in"] += attrs["n_in"]
            total[f"filtering.{stage}.n_kept"] += attrs["n_kept"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in PER_LAYER:
        out[name] = total[name] / n_ops
    for b in BEAMS:
        d = f"decode.beam{b}."
        out[d + "reorder_identity_ratio"] = ratio(total[d + "identity_reorders"],
                                                 total[d + "reorders"])
        out[d + "tokens_per_row_step"] = ratio(total[d + "tokens"],
                                              total[d + "row_steps"])
    out["bench.batches"] = ratio(total["bench.batches"], total["corpus_calls"])
    out["bench.fill_ratio"] = ratio(total["src_tokens"], total["budget_tokens"])
    out["tensor.ops_per_step"] = ratio(tracer.tensor_ops, total["loss_calls"])
    out["compress.encode_useful_ratio"] = ratio(len(encode_keys), prune_encodes)
    for stage in FILTER_STAGES:
        out[f"filtering.{stage}.kept_ratio"] = ratio(
            total[f"filtering.{stage}.n_kept"], total[f"filtering.{stage}.n_in"])
    return out
