"""Synthetic multilingual corpus generator with labeled noise.

Each pseudo-language is a deterministic, invertible word-substitution cipher
over a shared base language of number-word sentences, so an exact translation
mapping exists and the generating cipher doubles as an oracle translator.
All lexicon words are exactly four characters: clean pairs can never trip the
length or length-ratio rules, which keeps noise classes unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import ParallelRecord, SplitSpec, split_key
from .rng import Rng

# noise class labels (record.flags ground truth)
HTML = "html"
EMPTY = "empty"
SHORT = "short"
LONG = "long"
MISALIGNED = "misaligned"
DUPLICATE = "duplicate"
WRONG_LANG = "wrong_lang"

NOISE_CLASSES = (HTML, EMPTY, SHORT, LONG, MISALIGNED, DUPLICATE, WRONG_LANG)

# words per generated sentence, both ends inclusive
MIN_WORDS = 3
MAX_WORDS = 6

_DEFAULT_LEXICONS = {
    "anu_Latn": ("zilo", "unat", "dumo", "trel", "kvar",
                 "fimo", "sest", "sepi", "okto", "nona"),
    "bnu_Latn": ("nulo", "erin", "bidu", "sani", "ropa",
                 "lima", "gesa", "pito", "walu", "siyo"),
    "cnu_Latn": ("osum", "ikke", "tove", "drei", "fire",
                 "femu", "seks", "syvu", "otte", "nian"),
}


@dataclass(frozen=True)
class ToyLanguageSpec:
    """K pseudo-languages, each a word-for-word cipher over digits 0-9."""

    lexicons: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(_DEFAULT_LEXICONS))

    def __post_init__(self):
        all_words = [w for lex in self.lexicons.values() for w in lex]
        if len(set(all_words)) != len(all_words):
            raise ValueError("lexicon words must be globally distinct")
        for code, lex in self.lexicons.items():
            if len(lex) != 10:
                raise ValueError(f"{code}: lexicon must map digits 0-9")

    @property
    def languages(self) -> list[str]:
        return sorted(self.lexicons)

    def render(self, digits, lang: str) -> str:
        lex = self.lexicons[lang]
        return " ".join(lex[d] for d in digits)

    def parse(self, text: str, lang: str) -> tuple[int, ...]:
        inverse = {w: d for d, w in enumerate(self.lexicons[lang])}
        try:
            return tuple(inverse[w] for w in text.split())
        except KeyError as e:
            raise ValueError(f"word {e.args[0]!r} is not in {lang}") from None

    def translate(self, text: str, src_lang: str, tgt_lang: str) -> str:
        """Oracle translation via the generating cipher."""
        return self.render(self.parse(text, src_lang), tgt_lang)

    def alphabet(self) -> set[str]:
        return {c for lex in self.lexicons.values() for w in lex for c in w} | {" "}


@dataclass(frozen=True)
class NoiseRates:
    html: float = 0.0
    empty: float = 0.0
    short: float = 0.0
    long: float = 0.0
    misaligned: float = 0.0
    duplicate: float = 0.0
    wrong_lang: float = 0.0

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"noise rate {name}={value} outside [0, 1]")

    def as_dict(self) -> dict[str, float]:
        return {c: getattr(self, c) for c in NOISE_CLASSES}


@dataclass
class SyntheticCorpus:
    train: list[ParallelRecord]
    dev: list[ParallelRecord]
    devtest: list[ParallelRecord]


def _unique_sentences(n: int, rng: Rng):
    seen = set()
    out = []
    while len(out) < n:
        length = int(rng.integers(MIN_WORDS, MAX_WORDS + 1))
        digits = tuple(int(d) for d in rng.integers(0, 10, length))
        if digits in seen:
            continue
        seen.add(digits)
        out.append(digits)
    return out


def _clean_records(spec, bases, directions, origin):
    out = []
    for digits in bases:
        for src_lang, tgt_lang in directions:
            out.append(ParallelRecord(
                src_lang=src_lang, tgt_lang=tgt_lang,
                src=spec.render(digits, src_lang),
                tgt=spec.render(digits, tgt_lang),
                origin=origin))
    return out


def _corrupt(record: ParallelRecord, cls: str, spec: ToyLanguageSpec,
             rng: Rng) -> ParallelRecord:
    src, tgt = record.src, record.tgt
    kw = dict(src_lang=record.src_lang, tgt_lang=record.tgt_lang,
              origin=record.origin, flags=frozenset({cls}))
    if cls == HTML:
        # markup-only side: stripping empties it, so stage 1 must drop it
        if rng.integers(0, 2) == 0:
            return ParallelRecord(src="<p><br/></p>", tgt=tgt, **kw)
        return ParallelRecord(src=src, tgt="<div><hr/></div>", **kw)
    if cls == EMPTY:
        if rng.integers(0, 2) == 0:
            return ParallelRecord(src="", tgt=tgt, **kw)
        return ParallelRecord(src=src, tgt="", **kw)
    if cls == SHORT:
        side = tgt.split()[0][:2] if rng.integers(0, 2) else src.split()[0][:2]
        if rng.integers(0, 2) == 0:
            return ParallelRecord(src=side, tgt=tgt, **kw)
        return ParallelRecord(src=src, tgt=side, **kw)
    if cls == LONG:
        digits = tuple(int(d) for d in rng.integers(0, 10, 45))  # ~224 chars
        return ParallelRecord(src=spec.render(digits, record.src_lang),
                              tgt=spec.render(digits, record.tgt_lang), **kw)
    if cls == MISALIGNED:
        # tripled target: char ratio (3L + 2) / L is always > 2
        return ParallelRecord(src=src, tgt=" ".join([tgt] * 3), **kw)
    if cls == DUPLICATE:
        return ParallelRecord(src=src, tgt=tgt, **kw)
    if cls == WRONG_LANG:
        donors = [l for l in spec.languages
                  if l not in (record.src_lang, record.tgt_lang)]
        donor = donors[int(rng.integers(0, len(donors)))] if donors else record.src_lang
        digits = spec.parse(tgt, record.tgt_lang)
        return ParallelRecord(src=src, tgt=spec.render(digits, donor), **kw)
    raise ValueError(f"unknown noise class {cls!r}")


def generate_synthetic_corpus(spec: ToyLanguageSpec, sizes: SplitSpec,
                              noise: NoiseRates, seed: int) -> SyntheticCorpus:
    """Clean train/dev/devtest splits plus noise-injected train records, in
    both directions between the spec's first two languages.

    sizes.train_size counts clean pairs per direction before injection; each
    noise class adds round(rate * train_size) corrupted extras (train only).
    Splits are disjoint on (src_lang, tgt_lang, src, tgt) by construction.
    """
    root = Rng(seed)
    a, b = spec.languages[:2]
    directions = [(a, b), (b, a)]

    total = sizes.train_size + sizes.dev_size + sizes.devtest_size
    bases = _unique_sentences(total, root.split("bases"))
    train_b = bases[: sizes.train_size]
    dev_b = bases[sizes.train_size: sizes.train_size + sizes.dev_size]
    devtest_b = bases[sizes.train_size + sizes.dev_size:]

    train = _clean_records(spec, train_b, directions, "synthetic/train")
    dev = _clean_records(spec, dev_b, directions, "synthetic/dev")
    devtest = _clean_records(spec, devtest_b, directions, "synthetic/devtest")

    corrupted = []
    for cls, rate in noise.as_dict().items():
        n_inject = round(rate * len(train))
        if n_inject == 0:
            continue
        rng = root.split(f"noise:{cls}")
        victims = rng.choice(len(train), n_inject)
        for v in victims:
            corrupted.append(_corrupt(train[int(v)], cls, spec, rng))

    # clean records first, then injected ones: a duplicate copy is always a
    # later occurrence, so keep-first dedup removes exactly the flagged record
    clean_order = root.split("shuffle:clean").permutation(len(train))
    noisy = [train[int(i)] for i in clean_order]
    if corrupted:
        noise_order = root.split("shuffle:noise").permutation(len(corrupted))
        noisy.extend(corrupted[int(i)] for i in noise_order)

    # paranoia: splits must stay disjoint
    train_keys = {split_key(r) for r in noisy}
    for r in dev + devtest:
        if split_key(r) in train_keys:
            raise AssertionError("split leakage in synthetic generator")
    return SyntheticCorpus(train=noisy, dev=dev, devtest=devtest)


def langid_seed_corpus(spec: ToyLanguageSpec, n_per_lang: int, seed: int) -> dict[str, list[str]]:
    """Independent monolingual sentences for training the language detector."""
    root = Rng(seed)
    out = {}
    for lang in spec.languages:
        rng = root.split(f"langid:{lang}")
        out[lang] = [spec.render(d, lang)
                     for d in _unique_sentences(n_per_lang, rng)]
    return out
