import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimt.metrics import bleu, chrf_pp

from .oracles.bleu_reference import reference_bleu
from .oracles.chrf_reference import reference_chrf_pp


def random_pairs(n, alphabet="abcdefg ", max_len=20, seed=7):
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        hyp = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
        ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
        # avoid fully-blank strings: metrics expect text, not whitespace soup
        pairs.append((hyp.strip() or "a", ref.strip() or "b"))
    return pairs


class TestChrf:
    def test_perfect_match_is_100(self):
        assert chrf_pp(["hello world"], ["hello world"]).value == 100.0

    def test_disjoint_is_0(self):
        assert chrf_pp(["aaa"], ["zzz"]).value == 0.0

    def test_pinned_example(self):
        # frozen from tests/oracles/chrf_reference.py
        score = chrf_pp(["cat sat"], ["the cat sat down"])
        assert score.value == pytest.approx(39.202320100206485, abs=1e-9)

    def test_single_char_identity(self):
        assert chrf_pp(["a"], ["a"]).value == 100.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            chrf_pp(["a", "b"], ["a"])

    def test_empty_lists_raise(self):
        with pytest.raises(ValueError):
            chrf_pp([], [])

    def test_matches_oracle_on_random_pairs(self):
        pairs = random_pairs(50)
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        ours = chrf_pp(hyps, refs).value
        want = reference_chrf_pp(hyps, refs)
        assert abs(ours - want) < 1e-9


class TestBleu:
    def test_identity_corpus_is_100(self):
        hyps = ["the cat sat on the mat", "a dog barked loudly today"]
        assert bleu(hyps, list(hyps)).value == 100.0

    def test_pinned_smoothing_example(self):
        # single-token hypotheses: no 2-grams exist, smoothing path exercised;
        # frozen from tests/oracles/bleu_reference.py
        score = bleu(["cat", "dog"], ["the cat sat", "a dog barked"])
        assert score.value == pytest.approx(4.784824825520547, abs=1e-9)

    def test_pinned_mixed_example(self):
        score = bleu(
            ["the cat sat down", "a dog barked loudly today"],
            ["the cat sat on the mat", "a dog barked loudly"],
        )
        assert score.value == pytest.approx(51.663572044423724, abs=1e-9)

    def test_doubling_corpus_leaves_score_unchanged(self):
        hyps = ["the cat sat down", "a dog barked loudly today"]
        refs = ["the cat sat on the mat", "a dog barked loudly"]
        once = bleu(hyps, refs).value
        twice = bleu(hyps * 2, refs * 2).value
        assert once == pytest.approx(twice, abs=1e-12)

    def test_all_empty_hypotheses_scores_0_with_warning(self):
        score = bleu(["", ""], ["a cat", "a dog"])
        assert score.value == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            bleu(["a"], ["a", "b"])

    def test_matches_oracle_on_random_pairs(self):
        pairs = random_pairs(50, seed=13)
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        ours = bleu(hyps, refs).value
        want = reference_bleu(hyps, refs)
        assert abs(ours - want) < 1e-9

    def test_punctuation_is_isolated(self):
        # "cat," must match "cat ," after tokenization
        score = bleu(["the cat, sat"], ["the cat , sat"])
        assert score.value == 100.0


@st.composite
def corpus_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    text = st.text(alphabet="abcd .", min_size=1, max_size=15).filter(
        lambda s: s.strip()
    )
    hyps = draw(st.lists(text, min_size=n, max_size=n))
    refs = draw(st.lists(text, min_size=n, max_size=n))
    return hyps, refs


class TestMetricProperties:
    @settings(max_examples=60, deadline=None)
    @given(corpus_pairs())
    def test_bounded_and_deterministic(self, pairs):
        hyps, refs = pairs
        c1 = chrf_pp(hyps, refs).value
        c2 = chrf_pp(hyps, refs).value
        b1 = bleu(hyps, refs).value
        b2 = bleu(hyps, refs).value
        assert c1 == c2 and b1 == b2
        assert 0.0 <= c1 <= 100.0
        assert 0.0 <= b1 <= 100.0

    @settings(max_examples=60, deadline=None)
    @given(corpus_pairs(), st.randoms(use_true_random=False))
    def test_joint_permutation_invariance(self, pairs, rnd):
        hyps, refs = pairs
        order = list(range(len(hyps)))
        rnd.shuffle(order)
        hp = [hyps[i] for i in order]
        rp = [refs[i] for i in order]
        assert chrf_pp(hp, rp).value == pytest.approx(chrf_pp(hyps, refs).value, abs=1e-12)
        assert bleu(hp, rp).value == pytest.approx(bleu(hyps, refs).value, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="abcdef gh.", min_size=1, max_size=30).filter(lambda s: s.strip()))
    def test_chrf_self_identity(self, text):
        assert chrf_pp([text], [text]).value == 100.0
