"""Character n-gram Naive Bayes language detector.

Multinomial model over character 1-3-grams with add-one smoothing; the score
of (text, lang) is the posterior of lang among the configured languages under
a uniform prior. An empty text carries no evidence and scores 1/K everywhere.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass

MIN_SEED_SENTENCES = 50
MAX_NGRAM = 3


def char_ngrams(text: str) -> list[str]:
    """The 1- to MAX_NGRAM-grams of the NFC-normalized text, shortest first."""
    text = unicodedata.normalize("NFC", text)
    out = []
    for n in range(1, MAX_NGRAM + 1):
        out.extend(text[i: i + n] for i in range(len(text) - n + 1))
    return out


@dataclass(frozen=True)
class LangIdModel:
    languages: tuple[str, ...]
    log_prob: dict          # lang -> {ngram -> log p(ngram | lang)}
    floor_log: dict         # lang -> log p(unseen ngram | lang)

    def posterior(self, text: str) -> dict[str, float]:
        grams = char_ngrams(text)
        if not grams:
            k = len(self.languages)
            return {lang: 1.0 / k for lang in self.languages}
        logs = []
        for lang in self.languages:
            table = self.log_prob[lang]
            floor = self.floor_log[lang]
            logs.append(sum(table.get(g, floor) for g in grams))
        m = max(logs)
        exps = [math.exp(v - m) for v in logs]
        z = sum(exps)
        return {lang: e / z for lang, e in zip(self.languages, exps)}

    def score(self, text: str, lang: str) -> float:
        if lang not in self.languages:
            raise ValueError(f"language {lang!r} not configured")
        return self.posterior(text)[lang]


def train_langid(seed_corpus: dict[str, list[str]]) -> LangIdModel:
    """Fit the detector from monolingual seed sentences per language."""
    if not seed_corpus:
        raise ValueError("empty seed corpus")
    for lang, sentences in seed_corpus.items():
        if len(sentences) < MIN_SEED_SENTENCES:
            raise ValueError(f"{lang}: need >= {MIN_SEED_SENTENCES} seed sentences, "
                             f"got {len(sentences)}")

    counts: dict[str, dict[str, int]] = {}
    vocab: set[str] = set()
    for lang, sentences in seed_corpus.items():
        table: dict[str, int] = {}
        for s in sentences:
            for g in char_ngrams(s):
                table[g] = table.get(g, 0) + 1
        counts[lang] = table
        vocab.update(table)

    v = len(vocab)
    log_prob = {}
    floor_log = {}
    for lang, table in counts.items():
        total = sum(table.values())
        denom = total + v
        log_prob[lang] = {g: math.log((c + 1) / denom) for g, c in table.items()}
        floor_log[lang] = math.log(1.0 / denom)
    return LangIdModel(
        languages=tuple(sorted(seed_corpus)),
        log_prob=log_prob,
        floor_log=floor_log,
    )
