import pytest

from minimt.langid import char_ngrams, train_langid
from minimt.synthetic import ToyLanguageSpec, langid_seed_corpus


@pytest.fixture(scope="module")
def seeds():
    return langid_seed_corpus(ToyLanguageSpec(), 80, seed=4)


@pytest.fixture(scope="module")
def model(seeds):
    return train_langid(seeds)


def test_ngram_extraction():
    assert char_ngrams("ab") == ["a", "b", "ab"]
    assert char_ngrams("abcd")[-2:] == ["abc", "bcd"]


def test_posterior_sums_to_one(model):
    post = model.posterior("zilo unat dumo")
    assert sum(post.values()) == pytest.approx(1.0, abs=1e-9)
    assert set(post) == set(model.languages)


def test_empty_string_gives_uniform_posterior(model):
    post = model.posterior("")
    k = len(model.languages)
    for v in post.values():
        assert v == pytest.approx(1.0 / k, abs=1e-12)


def test_training_sentences_score_own_language_highest(model, seeds):
    total = 0
    correct = 0
    for lang, sentences in seeds.items():
        for s in sentences:
            total += 1
            post = model.posterior(s)
            if max(sorted(post), key=post.get) == lang:
                correct += 1
    assert correct / total >= 0.99


def test_wrong_language_scores_low(model):
    spec = ToyLanguageSpec()
    text = spec.render((1, 2, 3, 4), "anu_Latn")
    assert model.score(text, "anu_Latn") > 0.9
    assert model.score(text, "bnu_Latn") < 0.1


def test_unconfigured_language_rejected(model):
    with pytest.raises(ValueError):
        model.score("zilo", "zzz_Latn")


def test_too_little_seed_data_rejected():
    with pytest.raises(ValueError, match=">= 50"):
        train_langid({"anu_Latn": ["zilo"] * 10, "bnu_Latn": ["nulo"] * 60})
