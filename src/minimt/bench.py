"""Token-budget batching and throughput measurement.

Throughput counts OUTPUT tokens only (generated target tokens, excluding the
forced language tag / bos and the terminating eos) divided by timed wall
seconds on a monotonic clock. Warmup batches run before timing starts and are
reported separately in total_seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .decode import translate_batch
from .model import OverLongError, check_counts
from .parallel import map_ordered
from .vocab import detokenize, tokenize


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 3
    batch_token_budget: int = 1024
    max_output_length: int = 64

    def __post_init__(self):
        check_counts(self, "beam_size", "batch_token_budget", "max_output_length")


def encoder_token_count(vocab):
    """Source cost of a record: characters + language tag + eos."""

    def count(record) -> int:
        return len(tokenize(record.src, vocab)) + 2

    return count


def batch_by_tokens(records, token_budget: int, token_count) -> list[list]:
    """Greedy packing in input order; each batch's summed source tokens stay
    within the budget. Concatenating the batches reproduces the input."""
    batches: list[list] = []
    current: list = []
    current_tokens = 0
    for i, r in enumerate(records):
        n = token_count(r)
        if n > token_budget:
            raise ValueError(
                f"record {i} ({r.src[:40]!r}) needs {n} tokens, over the "
                f"budget of {token_budget}")
        if current and current_tokens + n > token_budget:
            batches.append(current)
            current = []
            current_tokens = 0
        current.append(r)
        current_tokens += n
    if current:
        batches.append(current)
    return batches


@dataclass
class DecodeRun:
    hypotheses: list[str]
    output_tokens: int
    timed_seconds: float
    total_seconds: float
    n_batches: int

    @property
    def tokens_per_second(self) -> float:
        """Output tokens per timed second; 0 when no time passed."""
        if self.timed_seconds <= 0:
            return 0.0
        return self.output_tokens / self.timed_seconds


def decode_corpus(model, records, cfg: DecodeConfig, warmup_batches: int = 0,
                  clock=None) -> DecodeRun:
    """Decode a record list in token-budget batches. The first
    warmup_batches batches are decoded once untimed, one after another,
    then every batch is decoded inside the timed window, whole batches
    spread over the CPUs by map_ordered. A row's output depends on its
    batch only through the batch's padded source width, and the batches
    are a function of records and cfg, so the run's bytes do not depend
    on how they are spread."""
    if warmup_batches < 0:
        raise ValueError(f"warmup_batches must be at least 0, got {warmup_batches}")
    clock = clock or time.monotonic
    batches = batch_by_tokens(records, cfg.batch_token_budget,
                              encoder_token_count(model.vocab))

    def decode(b: int) -> list[tuple[str, int]]:
        try:
            results = translate_batch(
                model, [(r.src, r.src_lang, r.tgt_lang) for r in batches[b]],
                cfg.beam_size, cfg.max_output_length)
        except OverLongError as e:
            e.index += sum(map(len, batches[:b]))   # the row's position in records
            raise
        return [(detokenize(res.tokens, model.vocab), len(res.tokens))
                for res in results]

    start_total = clock()
    for b in range(len(batches))[:warmup_batches]:
        decode(b)

    start_timed = clock()
    rows = [row for decoded in map_ordered(decode, range(len(batches)))
            for row in decoded]
    hyps = [hyp for hyp, _ in rows]
    output_tokens = sum(n for _, n in rows)
    end = clock()
    return DecodeRun(
        hypotheses=hyps,
        output_tokens=output_tokens,
        timed_seconds=end - start_timed,
        total_seconds=end - start_total,
        n_batches=len(batches),
    )
