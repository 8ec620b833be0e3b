"""Character-level vocabulary with explicit language-tag tokens.

Token ids: pad is always 0, then bos/eos/unk, then one tag token per
language code (rendered "<code>"), then the character inventory. chrF++
stays meaningful at this granularity, and no external subword model is
needed.
"""

from __future__ import annotations

import re
import unicodedata

LANG_CODE_RE = re.compile(r"^[a-z]{3}_[A-Z][a-z]{3}$")

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"


def validate_lang_code(code: str) -> str:
    if not LANG_CODE_RE.match(code):
        raise ValueError(f"malformed language code: {code!r} (want e.g. 'eng_Latn')")
    return code


class Vocab:
    """Immutable token inventory; single characters plus specials and tags."""

    def __init__(self, tokens: list[str], language_tags: dict[str, int]):
        self.tokens = tuple(tokens)
        self.pad = 0
        self.bos = tokens.index(BOS_TOKEN)
        self.eos = tokens.index(EOS_TOKEN)
        self.unk = tokens.index(UNK_TOKEN)
        self.language_tags = dict(language_tags)
        if tokens[0] != PAD_TOKEN:
            raise ValueError("pad token must sit at index 0")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        for code, idx in self.language_tags.items():
            validate_lang_code(code)
            if tokens[idx] != f"<{code}>":
                raise ValueError(f"language tag mismatch for {code}")
        self._char_to_id = {
            tok: i for i, tok in enumerate(tokens) if len(tok) == 1
        }

    def __len__(self):
        return len(self.tokens)

    def __eq__(self, other):
        return (
            isinstance(other, Vocab)
            and self.tokens == other.tokens
            and self.language_tags == other.language_tags
        )

    def lang_tag(self, code: str) -> int:
        if code not in self.language_tags:
            raise ValueError(f"language code {code!r} has no tag in the vocabulary")
        return self.language_tags[code]

    def char_id(self, ch: str) -> int:
        return self._char_to_id.get(ch, self.unk)


def build_vocab(alphabet, language_codes) -> Vocab:
    """Vocabulary over a character inventory (NFC-normalized) plus tags."""
    chars = sorted({unicodedata.normalize("NFC", c) for c in alphabet if len(c) == 1})
    codes = sorted(set(language_codes))
    for code in codes:
        validate_lang_code(code)
    tokens = [PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN]
    tags = {}
    for code in codes:
        tags[code] = len(tokens)
        tokens.append(f"<{code}>")
    tokens.extend(chars)
    return Vocab(tokens, tags)


def vocab_from_corpus(records) -> Vocab:
    chars = set()
    codes = set()
    for r in records:
        chars.update(r.src)
        chars.update(r.tgt)
        codes.add(r.src_lang)
        codes.add(r.tgt_lang)
    return build_vocab(chars, codes)


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Character ids over NFC-normalized text; unknown characters map to unk."""
    return [vocab.char_id(ch) for ch in unicodedata.normalize("NFC", text)]


def detokenize(ids, vocab: Vocab) -> str:
    """Inverse of tokenize for character tokens; specials and tags are dropped."""
    out = []
    for i in ids:
        tok = vocab.tokens[int(i)]
        if len(tok) == 1:
            out.append(tok)
    return "".join(out)

