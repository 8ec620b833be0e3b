"""Corpus-level BLEU and chrF++ built from scratch.

Both metrics are pure functions of (hypotheses, references) on the 0-100
scale. chrF++ doubles as the pruning objective, so it is kept free of
any model or IO dependency.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass

# chrF++: char n-grams 1..CHRF_CHAR_ORDER on whitespace-stripped text, word
# n-grams 1..CHRF_WORD_ORDER on punctuation-split tokens, F_beta
CHRF_CHAR_ORDER = 6
CHRF_WORD_ORDER = 2
CHRF_BETA = 2.0
BLEU_ORDER = 4


@dataclass(frozen=True)
class MetricScore:
    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 100.0:
            raise ValueError(f"metric value out of range: {self.value}")


def tokenize_for_bleu(text: str) -> list[str]:
    """Whitespace split, then break each chunk into alternating runs of
    punctuation and non-punctuation characters."""
    tokens = []
    for chunk in text.split():
        run = []
        run_punct = None
        for ch in chunk:
            punct = unicodedata.category(ch).startswith("P")
            if run and punct != run_punct:
                tokens.append("".join(run))
                run = []
            run.append(ch)
            run_punct = punct
        if run:
            tokens.append("".join(run))
    return tokens


def _ngram_counts(items, n: int) -> Counter:
    return Counter(tuple(items[i : i + n]) for i in range(len(items) - n + 1))


def _strip_ws(text: str) -> str:
    return "".join(text.split())


def _check_parallel(hypotheses, references):
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference length mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise ValueError("empty corpus")


def chrf_statistics(hypothesis: str, reference: str) -> tuple[int, ...]:
    """One sentence pair's chrF++ counts: hypothesis n-grams, reference
    n-grams and matches, each for the character orders then the word
    orders. Integer counts, so their sums over a corpus are exact in any
    order."""
    hyp_chars, ref_chars = _strip_ws(hypothesis), _strip_ws(reference)
    hyp_words = tokenize_for_bleu(hypothesis)
    ref_words = tokenize_for_bleu(reference)
    orders = ([(hyp_chars, ref_chars, n) for n in range(1, CHRF_CHAR_ORDER + 1)]
              + [(hyp_words, ref_words, n) for n in range(1, CHRF_WORD_ORDER + 1)])
    hyp_tot, ref_tot, match_tot = [], [], []
    for hyp_items, ref_items, n in orders:
        hc = _ngram_counts(hyp_items, n)
        rc = _ngram_counts(ref_items, n)
        hyp_tot.append(sum(hc.values()))
        ref_tot.append(sum(rc.values()))
        match_tot.append(sum((hc & rc).values()))
    return (*hyp_tot, *ref_tot, *match_tot)


def chrf_from_statistics(totals) -> MetricScore:
    """Corpus chrF++ from chrf_statistics summed over the corpus' sentence
    pairs: order-averaged precision/recall over character and word n-grams,
    combined with F_beta. Orders with zero reference mass are excluded from
    the averages."""
    n_orders = CHRF_CHAR_ORDER + CHRF_WORD_ORDER
    hyp_tot = totals[:n_orders]
    ref_tot = totals[n_orders: 2 * n_orders]
    match_tot = totals[2 * n_orders:]

    precisions = []
    recalls = []
    for i in range(n_orders):
        if ref_tot[i] == 0:
            continue
        precisions.append(match_tot[i] / hyp_tot[i] if hyp_tot[i] > 0 else 0.0)
        recalls.append(match_tot[i] / ref_tot[i])

    if not precisions:
        value = 0.0
    else:
        p = sum(precisions) / len(precisions)
        r = sum(recalls) / len(recalls)
        if p + r == 0:
            value = 0.0
        else:
            b2 = CHRF_BETA * CHRF_BETA
            value = 100.0 * (1 + b2) * p * r / (b2 * p + r)
    return MetricScore(value)


def chrf_pp(hypotheses: list[str], references: list[str]) -> MetricScore:
    """Corpus chrF++ (chrf_from_statistics of the summed chrf_statistics)."""
    _check_parallel(hypotheses, references)
    stats = [chrf_statistics(h, r) for h, r in zip(hypotheses, references)]
    return chrf_from_statistics([sum(c) for c in zip(*stats)])


def bleu(hypotheses: list[str], references: list[str]) -> MetricScore:
    """Corpus BLEU: clipped modified n-gram precisions, geometric mean over
    orders 1..BLEU_ORDER, times brevity penalty exp(1 - r/c) when c < r.

    Tokenizer: split on whitespace, isolate Unicode punctuation runs as
    separate tokens; no lowercasing. Exponential smoothing: the k-th order
    with zero matches (k counting zero-match orders so far) contributes
    precision 1/(2^k * max(total, 1)); the max(total, 1) guard covers orders
    where the hypotheses contain no n-grams at all. Hypotheses that are all
    empty (c = 0) score 0."""
    _check_parallel(hypotheses, references)

    correct = [0] * BLEU_ORDER
    total = [0] * BLEU_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_toks = tokenize_for_bleu(hyp)
        ref_toks = tokenize_for_bleu(ref)
        hyp_len += len(hyp_toks)
        ref_len += len(ref_toks)
        for n in range(1, BLEU_ORDER + 1):
            hc = _ngram_counts(hyp_toks, n)
            rc = _ngram_counts(ref_toks, n)
            correct[n - 1] += sum((hc & rc).values())
            total[n - 1] += sum(hc.values())

    if hyp_len == 0:
        return MetricScore(0.0)

    log_sum = 0.0
    zero_orders = 0
    for n in range(1, BLEU_ORDER + 1):
        if correct[n - 1] > 0:
            p = correct[n - 1] / total[n - 1]
        else:
            zero_orders += 1
            p = 1.0 / (2**zero_orders * max(total[n - 1], 1))
        log_sum += math.log(p)

    geo_mean = math.exp(log_sum / BLEU_ORDER)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return MetricScore(100.0 * bp * geo_mean)


def evaluate_direction(model, testset, decode_cfg, clock=None):
    """Translate a single-direction test set and score it.

    Returns an EvalRow with BLEU, chrF++, output tokens/sec and wall seconds.
    The COMET column is structurally absent from EvalRow (reports mark it so).
    """
    from .bench import decode_corpus
    from .reports import EvalRow

    if not testset:
        raise ValueError("empty testset")
    directions = {(r.src_lang, r.tgt_lang) for r in testset}
    if len(directions) != 1:
        raise ValueError(f"testset spans multiple directions: {sorted(directions)}")
    (src_lang, tgt_lang) = next(iter(directions))

    run = decode_corpus(model, testset, decode_cfg, clock=clock)
    refs = [r.tgt for r in testset]
    b = bleu(run.hypotheses, refs)
    c = chrf_pp(run.hypotheses, refs)
    return EvalRow(
        direction=f"{src_lang}-{tgt_lang}",
        model_id=model.model_id(),
        bleu=b.value,
        chrf_pp=c.value,
        throughput_tokens_per_sec=run.tokens_per_second,
        total_seconds=run.total_seconds,
        output_tokens=run.output_tokens,
        beam_size=decode_cfg.beam_size,
        batch_token_budget=decode_cfg.batch_token_budget,
    )
