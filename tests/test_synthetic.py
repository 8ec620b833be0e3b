from dataclasses import fields

import pytest

from minimt.corpus import SplitSpec, split_key
from minimt.metrics import chrf_pp
from minimt.synthetic import (
    NOISE_CLASSES,
    NoiseRates,
    ToyLanguageSpec,
    generate_synthetic_corpus,
    langid_seed_corpus,
)


@pytest.fixture(scope="module")
def spec():
    return ToyLanguageSpec()


class TestToyLanguages:
    def test_cipher_roundtrip(self, spec):
        digits = (3, 5, 2)
        for lang in spec.languages:
            assert spec.parse(spec.render(digits, lang), lang) == digits

    def test_translate_is_cipher_composition(self, spec):
        text = spec.render((1, 4, 9), "anu_Latn")
        out = spec.translate(text, "anu_Latn", "bnu_Latn")
        assert spec.parse(out, "bnu_Latn") == (1, 4, 9)

    def test_unknown_word_rejected(self, spec):
        with pytest.raises(ValueError):
            spec.parse("hello", "anu_Latn")

    def test_lexicons_globally_distinct(self):
        with pytest.raises(ValueError):
            ToyLanguageSpec(lexicons={
                "anu_Latn": ("aaaa",) * 10,
                "bnu_Latn": ("bbbb",) * 10,
            })


class TestGenerator:
    def test_zero_noise_all_clean_and_invertible(self, spec):
        corpus = generate_synthetic_corpus(
            spec, SplitSpec(train_size=50, dev_size=10, devtest_size=10),
            NoiseRates(), seed=3)
        assert all(not r.flags for r in corpus.train)
        for r in corpus.train:
            assert spec.translate(r.src, r.src_lang, r.tgt_lang) == r.tgt

    def test_noise_counts_are_exact(self, spec):
        corpus = generate_synthetic_corpus(
            spec, SplitSpec(train_size=500, dev_size=10, devtest_size=10),
            NoiseRates(duplicate=0.1), seed=3)
        n_clean = 500 * 2  # two directions
        flagged = [r for r in corpus.train if "duplicate" in r.flags]
        assert len(flagged) == round(0.1 * n_clean)
        assert len(corpus.train) == n_clean + len(flagged)

    def test_all_noise_classes_injected_and_violating(self, spec):
        rates = NoiseRates(**{c: 0.05 for c in NOISE_CLASSES})
        corpus = generate_synthetic_corpus(
            spec, SplitSpec(train_size=200, dev_size=10, devtest_size=10),
            rates, seed=9)
        by_class = {c: [r for r in corpus.train if c in r.flags] for c in NOISE_CLASSES}
        for c, records in by_class.items():
            assert records, f"no {c} records injected"
        for r in by_class["misaligned"]:
            a, b = len(r.src), len(r.tgt)
            assert max(a, b) / min(a, b) > 2.0
        for r in by_class["short"]:
            assert min(len(r.src), len(r.tgt)) < 3
        for r in by_class["long"]:
            assert len(r.src) > 200 and len(r.tgt) > 200
        for r in by_class["empty"]:
            assert r.src == "" or r.tgt == ""
        for r in by_class["html"]:
            assert "<" in r.src + r.tgt
        for r in by_class["wrong_lang"]:
            with pytest.raises(ValueError):
                spec.parse(r.tgt, r.tgt_lang)

    def test_splits_disjoint(self, spec):
        corpus = generate_synthetic_corpus(
            spec, SplitSpec(train_size=300, dev_size=50, devtest_size=50),
            NoiseRates(duplicate=0.1, html=0.1), seed=5)
        train = {split_key(r) for r in corpus.train}
        dev = {split_key(r) for r in corpus.dev}
        devtest = {split_key(r) for r in corpus.devtest}
        assert not train & dev
        assert not train & devtest
        assert not dev & devtest

    def test_determinism(self, spec):
        kw = dict(sizes=SplitSpec(train_size=100, dev_size=20, devtest_size=20),
                  noise=NoiseRates(wrong_lang=0.2), seed=11)
        a = generate_synthetic_corpus(spec, **kw)
        b = generate_synthetic_corpus(spec, **kw)
        assert a.train == b.train
        assert a.dev == b.dev

    def test_clean_dev_solved_by_cipher_at_chrf_100(self, spec):
        corpus = generate_synthetic_corpus(
            spec, SplitSpec(train_size=20, dev_size=30, devtest_size=10),
            NoiseRates(), seed=7)
        hyps = [spec.translate(r.src, r.src_lang, r.tgt_lang) for r in corpus.dev]
        refs = [r.tgt for r in corpus.dev]
        assert chrf_pp(hyps, refs).value == 100.0

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            NoiseRates(html=1.5)

    def test_fields_are_the_noise_classes_in_order(self):
        # classes are injected in field order, which fixes the corpus bytes
        assert tuple(f.name for f in fields(NoiseRates)) == NOISE_CLASSES


def test_langid_seed_corpus_shapes(spec):
    seeds = langid_seed_corpus(spec, 60, seed=1)
    assert set(seeds) == set(spec.languages)
    for lang, sents in seeds.items():
        assert len(sents) == 60
        for s in sents:
            spec.parse(s, lang)  # every sentence is in-language
