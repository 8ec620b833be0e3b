import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimt.vocab import build_vocab, detokenize, tokenize


@pytest.fixture
def vocab():
    return build_vocab("abcdef ", ["anu_Latn", "bnu_Latn"])


def test_pad_is_zero_and_specials_distinct(vocab):
    assert vocab.pad == 0
    assert len({vocab.pad, vocab.bos, vocab.eos, vocab.unk}) == 4


def test_empty_string_tokenizes_to_empty(vocab):
    assert tokenize("", vocab) == []


def test_explicit_mapping():
    v = build_vocab("ab", ["anu_Latn"])
    ids = tokenize("ab", v)
    assert ids == [v.char_id("a"), v.char_id("b")]
    assert len(ids) == 2


def test_unknown_char_maps_to_unk(vocab):
    assert tokenize("z", vocab) == [vocab.unk]


def test_language_tags_present(vocab):
    assert vocab.lang_tag("anu_Latn") != vocab.lang_tag("bnu_Latn")
    with pytest.raises(ValueError):
        vocab.lang_tag("xxx_Xxxx")


def test_malformed_code_rejected():
    with pytest.raises(ValueError):
        build_vocab("ab", ["english"])


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="abcdef ", max_size=30))
def test_roundtrip_over_vocab_alphabet(s):
    v = build_vocab("abcdef ", ["anu_Latn"])
    assert detokenize(tokenize(s, v), v) == s
