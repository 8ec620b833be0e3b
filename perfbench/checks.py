"""Output checks. Each returns a list of failure messages, empty when the
output is right. They take outputs as plain values, so the self-test can
hand them deliberately corrupted copies and see them fail.
"""

from __future__ import annotations

import math
import re

import numpy as np
from minimt import bench, decode, model as model_mod
from minimt.corpus import ParallelRecord
from minimt.vocab import tokenize

# Incremental and teacher-forced decoding add the same float32 terms in a
# different order, so their logits differ by ~1e-6. A beam-1 token other
# than the forced argmax passes only if its forced logit is within this
# margin of the maximum, i.e. the two paths saw a near-tie.
NEAR_TIE = 1e-4

_TAG_RE = re.compile(r"<[^>]*>")


def greedy_matches_forced(model, records, hyps, max_len: int,
                          budget: int) -> list[str]:
    """Every beam-1 hypothesis must pick the argmax of
    full_decoder_logits_np at each generated position, and at the eos that
    ended it when it stopped before max_len. Checked per decode batch."""
    if len(hyps) != len(records):
        return [f"{len(hyps)} hypotheses for {len(records)} records"]
    vocab = model.vocab
    failures = []
    start = 0
    for b, batch in enumerate(bench.batch_by_tokens(
            records, budget, bench.encoder_token_count(vocab))):
        batch_hyps = hyps[start: start + len(batch)]
        start += len(batch)
        forced = [ParallelRecord(src_lang=r.src_lang, tgt_lang=r.tgt_lang,
                                 src=r.src, tgt=h)
                  for r, h in zip(batch, batch_hyps)]
        src_ids, src_len, dec_in, dec_tgt = model_mod.build_batch(
            vocab, forced, model.config.max_positions)
        logits = decode.full_decoder_logits_np(model, src_ids, src_len, dec_in)
        for i, hyp in enumerate(batch_hyps):
            n = len(tokenize(hyp, vocab))
            steps = n + 1 if n < max_len else n
            rows = logits[i, 1: 1 + steps]
            chosen = dec_tgt[i, 1: 1 + steps]
            gap = rows.max(axis=-1) - rows[np.arange(steps), chosen]
            worst = int(np.argmax(gap))
            if gap[worst] > NEAR_TIE:
                failures.append(
                    f"batch {b} row {i}: token {worst} of {hyp!r} is "
                    f"{gap[worst]:.3g} below the forced argmax")
                break
    return failures


def replay_removals(model, removal_sequence):
    """Apply remove_layers to model in a report's order of original ids."""
    remaining = {model_mod.ENCODER: list(range(model.config.n_encoder_layers)),
                 model_mod.DECODER: list(range(model.config.n_decoder_layers))}
    for side, layer_id in removal_sequence:
        idx = remaining[side].index(layer_id)
        model = model_mod.remove_layers(model, side, {idx})
        del remaining[side][idx]
    return model


def prune_consistent(base, pruned, report, recomputed_chrf: float) -> list[str]:
    """The pruned model is the frozen model minus the reported layers, and
    its recomputed dev chrF++ is the last chosen score."""
    failures = []
    last = report.iterations[-1].chosen["chrf"]
    if recomputed_chrf != last:
        failures.append(f"recomputed chrF++ {recomputed_chrf!r} != last "
                        f"chosen {last!r}")
    expected = replay_removals(base, report.removal_sequence()).fingerprint()
    got = pruned.fingerprint()
    if got != expected:
        failures.append("pruned model differs from remove_layers replayed in "
                        "the reported order")
    if got != report.final_fingerprint:
        failures.append("pruned model differs from the report's fingerprint")
    return failures


def bytes_identical(first: bytes, second: bytes, what: str) -> list[str]:
    if first == second:
        return []
    return [f"{what}: {len(first)} vs {len(second)} bytes, not identical"]


def _same_record(original, kept) -> bool:
    if original == kept:
        return True
    stripped = ParallelRecord(
        src_lang=original.src_lang, tgt_lang=original.tgt_lang,
        src=_TAG_RE.sub("", original.src).strip(),
        tgt=_TAG_RE.sub("", original.tgt).strip(),
        origin=original.origin, flags=original.flags)
    return stripped == kept


def kept_positions(records, kept) -> list[int] | None:
    """Input index of each kept record if kept is an order-preserving
    sub-list of records (allowing stage 1's HTML stripping), else None."""
    positions = []
    j = 0
    for k in kept:
        while j < len(records) and not _same_record(records[j], k):
            j += 1
        if j == len(records):
            return None
        positions.append(j)
        j += 1
    return positions


def filter_output_valid(records, kept, report) -> list[str]:
    failures = []
    try:
        report.validate()
    except AssertionError as e:
        failures.append(f"FilterReport.validate(): {e}")
    if report.n_in != len(records) or report.n_out != len(kept):
        failures.append(f"report counts {report.n_in}->{report.n_out} but "
                        f"{len(records)}->{len(kept)} records")
    if kept_positions(records, kept) is None:
        failures.append("output is not an order-preserving sub-list of the input")
    return failures


def noise_f1(records, positions) -> float:
    """F1 of the dropped records against the injected-noise flags."""
    dropped = set(range(len(records))) - set(positions)
    noisy = {i for i, r in enumerate(records) if r.flags}
    if not dropped and not noisy:
        return 1.0
    return 2 * len(dropped & noisy) / (len(dropped) + len(noisy))


def losses_finite(losses) -> list[str]:
    return [f"loss {v!r} is not finite" for v in losses if not math.isfinite(v)]


def repeats_exactly(values, what: str) -> list[str]:
    """Every operation of a run decodes, prunes or trains the same inputs,
    so their outputs must be identical."""
    if all(v == values[0] for v in values[1:]):
        return []
    return [f"{what} differs between repetitions of the same operation"]
