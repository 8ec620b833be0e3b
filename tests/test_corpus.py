import json
import pathlib

import pytest

from minimt.corpus import (
    CorpusFormatError,
    ParallelRecord,
    read_corpus,
    split_key,
    write_corpus,
)

DATA = pathlib.Path(__file__).parent / "data"


def rec(src="zilo unat", tgt="nulo erin", sl="anu_Latn", tl="bnu_Latn", **kw):
    return ParallelRecord(src_lang=sl, tgt_lang=tl, src=src, tgt=tgt, **kw)


class TestRecord:
    def test_nfc_normalization_applied(self):
        # e + combining acute normalizes to precomposed é
        r = rec(src="café")
        assert r.src == "café"

    def test_bad_lang_code_rejected(self):
        with pytest.raises(ValueError):
            rec(sl="en")

    def test_flags_frozen(self):
        r = rec(flags={"html"})
        assert r.flags == frozenset({"html"})


class TestReadWrite:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        records, report = read_corpus(p)
        assert records == []
        assert report.n_malformed == 0

    def test_single_valid_jsonl_line(self, tmp_path):
        p = tmp_path / "one.jsonl"
        p.write_text(json.dumps({
            "src_lang": "anu_Latn", "tgt_lang": "bnu_Latn",
            "src": "zilo", "tgt": "nulo"}) + "\n")
        records, report = read_corpus(p)
        assert len(records) == 1
        assert records[0].src == "zilo"
        assert report.n_malformed == 0

    def test_malformed_lines_collected(self, tmp_path):
        p = tmp_path / "mixed.jsonl"
        lines = [json.dumps({"src_lang": "anu_Latn", "tgt_lang": "bnu_Latn",
                             "src": f"s{i}", "tgt": f"t{i}"}) for i in range(20)]
        lines.insert(3, "{not json")
        p.write_text("\n".join(lines) + "\n")
        records, report = read_corpus(p)
        assert len(records) == 20
        assert report.n_malformed == 1
        assert report.errors[0][0] == 4

    def test_too_many_malformed_is_hard_error(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("junk\n" * 5 + json.dumps({
            "src_lang": "anu_Latn", "tgt_lang": "bnu_Latn",
            "src": "a b c", "tgt": "d e f"}) + "\n")
        with pytest.raises(CorpusFormatError):
            read_corpus(p)

    def test_tsv_fixture_with_embedded_tab(self):
        records, report = read_corpus(DATA / "sample.tsv", format="tsv")
        assert report.n_malformed == 0
        assert len(records) == 4
        assert records[1].src == "trel\tkvar"  # quoted tab survives
        assert records[2].src == 'she said "hi"'
        assert records[3].origin == ""

    def test_write_then_read_roundtrip(self, tmp_path):
        records = [rec(src=f"s {i}", tgt=f"t {i}") for i in range(5)]
        p = tmp_path / "rt.jsonl"
        write_corpus(records, p)
        back, _ = read_corpus(p)
        assert [split_key(r) for r in back] == [split_key(r) for r in records]

    def test_flags_never_serialized(self, tmp_path):
        p = tmp_path / "f.jsonl"
        write_corpus([rec(flags={"html"})], p)
        assert "html" not in p.read_text()

