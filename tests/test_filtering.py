import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import minimt.bench as bench
import minimt.filtering as filtering
from minimt.bench import encoder_token_count
from minimt.corpus import ParallelRecord, SplitSpec, record_to_json
from minimt.decode import translate_batch
from minimt.filtering import (
    SEMANTIC_TOKEN_BUDGET,
    STAGE_LANG,
    STAGE_QE,
    STAGE_RULE,
    STAGE_SEMANTIC,
    FilterConfig,
    PivotTranslationEmbedder,
    ScorerSet,
    ScorerExitedError,
    ScorerTimeoutError,
    SubprocessScorer,
    langid_scorers,
    language_detection_filter,
    quality_estimation_filter,
    rule_based_filter,
    run_pipeline,
    semantic_filter,
)
from minimt.langid import train_langid
from minimt.model import ModelConfig, OverLongError, init_model
from minimt.rng import Rng
from minimt.synthetic import (
    NoiseRates,
    ToyLanguageSpec,
    generate_synthetic_corpus,
    langid_seed_corpus,
)
from minimt.vocab import build_vocab, detokenize


def rec(src, tgt, sl="anu_Latn", tl="bnu_Latn", **kw):
    return ParallelRecord(src_lang=sl, tgt_lang=tl, src=src, tgt=tgt, **kw)


CLEAN = rec("zilo unat dumo trell", "nulo erin bidu sanim")


class TestRuleBased:
    def test_short_side_dropped_as_min_length(self):
        kept, report = rule_based_filter([rec("hi", "nulo erin")])
        assert kept == []
        assert report.drop_reasons == {"min_length": 1}

    def test_ratio_violation_dropped(self):
        kept, report = rule_based_filter([rec("a" * 30, "b" * 90)])
        assert kept == []
        assert report.drop_reasons == {"length_ratio": 1}

    def test_clean_record_passes_unchanged(self):
        kept, report = rule_based_filter([CLEAN])
        assert kept == [CLEAN]
        assert report.modified == 0

    def test_html_stripped_and_record_kept(self):
        tagged = rec("zilo <b>unat</b> dumo", "nulo erin bidu")
        kept, report = rule_based_filter([tagged])
        assert len(kept) == 1
        assert kept[0].src == "zilo unat dumo"
        assert report.modified == 1

    def test_markup_only_side_dropped_as_empty(self):
        kept, report = rule_based_filter([rec("<p><br/></p>", "nulo erin bidu")])
        assert kept == []
        assert report.drop_reasons == {"empty": 1}

    def test_exact_duplicates_keep_first(self):
        a = rec("zilo unat dumo", "nulo erin bidu", origin="first")
        b = rec("zilo unat dumo", "nulo erin bidu", origin="second")
        kept, report = rule_based_filter([a, b])
        assert kept == [a]
        assert report.drop_reasons == {"duplicate": 1}

    def test_max_length_dropped(self):
        kept, report = rule_based_filter([rec("x" * 201, "y" * 201)])
        assert report.drop_reasons == {"max_length": 1}

    def test_ratio_exactly_two_is_kept(self):
        kept, _ = rule_based_filter([rec("abcd", "efghijkl")])
        assert len(kept) == 1


@pytest.fixture(scope="module")
def toy_setup():
    spec = ToyLanguageSpec()
    seeds = langid_seed_corpus(spec, 80, seed=4)
    detector = train_langid(seeds)
    return spec, langid_scorers(detector)


class TestLanguageDetection:
    def test_in_language_kept(self, toy_setup):
        spec, scorers = toy_setup
        r = rec(spec.render((1, 2, 3), "anu_Latn"), spec.render((1, 2, 3), "bnu_Latn"))
        kept, _ = language_detection_filter([r], scorers, FilterConfig())
        assert kept == [r]

    def test_wrong_language_dropped(self, toy_setup):
        spec, scorers = toy_setup
        # target labeled bnu but written in cnu
        r = rec(spec.render((1, 2, 3), "anu_Latn"), spec.render((1, 2, 3), "cnu_Latn"))
        kept, report = language_detection_filter([r], scorers, FilterConfig())
        assert kept == []
        assert report.drop_reasons == {"tgt_language": 1}

    def test_skip_listed_language_bypasses(self, toy_setup):
        spec, scorers = toy_setup
        cfg = FilterConfig(skip_languages={STAGE_LANG: {"bnu_Latn"}})
        r = rec(spec.render((1, 2), "anu_Latn"), spec.render((1, 2), "cnu_Latn"))
        kept, _ = language_detection_filter([r], scorers, cfg)
        assert kept == [r]

    def test_missing_scorer_errors(self, toy_setup):
        _, scorers = toy_setup
        r = rec("zilo", "nulo", sl="zzz_Latn")
        with pytest.raises(ValueError, match="zzz_Latn"):
            language_detection_filter([r], scorers, FilterConfig())


class FakeEmbedder:
    """Deterministic embedding table keyed by exact text."""

    name = "fake-embed"

    def __init__(self, table, supported=("anu_Latn", "bnu_Latn")):
        self.table = table
        self.supported = set(supported)

    def supports(self, lang):
        return lang in self.supported

    def embed_batch(self, texts, langs):
        return [np.array(self.table[t], dtype=np.float64) for t in texts]


class TestSemantic:
    def test_identical_embeddings_kept(self):
        emb = FakeEmbedder({"a b c": [1.0, 0.0], "x y z": [1.0, 0.0]})
        kept, _ = semantic_filter([rec("a b c", "x y z")], emb, FilterConfig())
        assert len(kept) == 1

    def test_orthogonal_embeddings_dropped_at_06(self):
        emb = FakeEmbedder({"a b c": [1.0, 0.0], "x y z": [0.0, 1.0]})
        kept, report = semantic_filter([rec("a b c", "x y z")], emb, FilterConfig())
        assert kept == []
        assert report.drop_reasons == {"semantic": 1}

    def test_zero_vector_scores_zero_with_warning(self):
        emb = FakeEmbedder({"a b c": [0.0, 0.0], "x y z": [1.0, 0.0]})
        kept, report = semantic_filter([rec("a b c", "x y z")], emb, FilterConfig())
        assert kept == []
        assert report.warnings.get("zero_vector") == 1

    def test_unsupported_language_bypasses(self):
        emb = FakeEmbedder({}, supported=("anu_Latn",))
        r = rec("a b c", "x y z")  # tgt bnu unsupported
        kept, report = semantic_filter([r], emb, FilterConfig())
        assert kept == [r]
        assert report.warnings.get("skipped_language") == 1

    def test_one_embedding_too_few_is_error(self):
        class ShortEmbedder(FakeEmbedder):
            def embed_batch(self, texts, langs):
                return super().embed_batch(texts, langs)[:-1]

        emb = ShortEmbedder({"a b c": [1.0, 0.0], "x y z": [1.0, 0.0]})
        records = [rec("a b c", "x y z"), rec("x y z", "a b c")]
        with pytest.raises(ValueError, match="fake-embed returned 3 results for 4"):
            semantic_filter(records, emb, FilterConfig())

    def test_repeated_record_is_scored_at_each_position(self):
        emb = FakeEmbedder({"a b c": [1.0, 0.0], "x y z": [0.0, 1.0],
                            "p q r": [1.0, 0.0]})
        bad, good = rec("a b c", "x y z"), rec("a b c", "p q r")
        kept, report = semantic_filter([bad, good, bad], emb, FilterConfig())
        assert kept == [good]
        assert report.drop_reasons == {"semantic": 2}


class FakeQE:
    name = "fake-qe"

    def __init__(self, scores):
        self.scores = scores

    def supports(self, s, t):
        return True

    def score_batch(self, records):
        return [self.scores[r.src] for r in records]


class TestQualityEstimation:
    def test_threshold_split(self):
        qe = FakeQE({"good": 0.9, "bad": 0.2})
        records = [rec("good", "t one"), rec("bad", "t two")]
        kept, report = quality_estimation_filter(records, qe, FilterConfig())
        assert [r.src for r in kept] == ["good"]
        assert report.drop_reasons == {"quality": 1}

    def test_skip_listed_pair_kept(self):
        qe = FakeQE({"bad": 0.0})
        cfg = FilterConfig(skip_languages={STAGE_QE: {"anu_Latn"}})
        kept, _ = quality_estimation_filter([rec("bad", "t")], qe, cfg)
        assert len(kept) == 1

    def test_out_of_range_score_is_error(self):
        qe = FakeQE({"x": 1.5})
        with pytest.raises(ValueError, match="out-of-range"):
            quality_estimation_filter([rec("x", "t")], qe, FilterConfig())

    def test_one_score_too_few_is_error(self):
        class ShortQE(FakeQE):
            def score_batch(self, records):
                return super().score_batch(records)[:-1]

        qe = ShortQE({"good": 0.9, "bad": 0.2})
        records = [rec("good", "t one"), rec("bad", "t two"), rec("bad", "t three")]
        with pytest.raises(ValueError, match="fake-qe returned 2 results for 3"):
            quality_estimation_filter(records, qe, FilterConfig())


class TestConfig:
    @pytest.mark.parametrize("skip", ["anu_Latn", ["anu_Latn", 3], 7])
    def test_skip_languages_must_be_a_collection_of_codes(self, skip):
        with pytest.raises(ValueError, match="semantic"):
            FilterConfig(skip_languages={STAGE_SEMANTIC: skip})

    @pytest.mark.parametrize("flag", ["no", 0, None])
    def test_stages_enabled_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match="semantic"):
            FilterConfig(stages_enabled={STAGE_SEMANTIC: flag})

    def test_fingerprints_of_valid_configs_are_unchanged(self):
        assert FilterConfig().fingerprint() == "c8cddca16938"
        cfg = FilterConfig(threshold=0.5,
                           skip_languages={STAGE_SEMANTIC: {"anu_Latn"},
                                           STAGE_QE: ["bnu_Latn", "anu_Latn"]},
                           stages_enabled={STAGE_SEMANTIC: False, STAGE_LANG: True})
        assert cfg.fingerprint() == "6eba8bbc2693"


class TestPipeline:
    def test_all_stages_disabled_is_identity(self):
        cfg = FilterConfig(stages_enabled={s: False for s in
                                           (STAGE_RULE, STAGE_LANG, STAGE_SEMANTIC, STAGE_QE)})
        records = [rec("hi", "yo")]  # would be dropped by rules if enabled
        kept, report = run_pipeline(records, cfg, ScorerSet())
        assert kept == records
        assert report.n_in == 0 and report.stages == []

    def test_rule_detectable_flags_removed_with_full_recall(self, toy_setup):
        spec, scorers = toy_setup
        rates = NoiseRates(html=0.1, empty=0.1, short=0.1, long=0.1,
                           misaligned=0.1, duplicate=0.1)
        corpus = generate_synthetic_corpus(
            spec, SplitSpec(train_size=300, dev_size=10, devtest_size=10),
            rates, seed=21)
        cfg = FilterConfig(stages_enabled={STAGE_SEMANTIC: False, STAGE_QE: False})
        kept, report = run_pipeline(corpus.train, cfg, ScorerSet(langid=scorers))
        rule_flags = {"html", "empty", "short", "long", "misaligned", "duplicate"}
        assert not any(r.flags & rule_flags for r in kept)
        report.validate()

    def test_wrong_language_removed_at_90_percent(self, toy_setup):
        spec, scorers = toy_setup
        corpus = generate_synthetic_corpus(
            spec, SplitSpec(train_size=400, dev_size=10, devtest_size=10),
            NoiseRates(wrong_lang=0.1), seed=22)
        cfg = FilterConfig(stages_enabled={STAGE_SEMANTIC: False, STAGE_QE: False})
        kept, _ = run_pipeline(corpus.train, cfg, ScorerSet(langid=scorers))
        injected = sum(1 for r in corpus.train if "wrong_lang" in r.flags)
        survived = sum(1 for r in kept if "wrong_lang" in r.flags)
        assert injected > 0
        assert (injected - survived) / injected >= 0.9

    def test_pipeline_idempotent_on_own_output(self, toy_setup):
        spec, scorers = toy_setup
        corpus = generate_synthetic_corpus(
            spec, SplitSpec(train_size=200, dev_size=10, devtest_size=10),
            NoiseRates(html=0.1, duplicate=0.1, wrong_lang=0.1), seed=23)
        cfg = FilterConfig(stages_enabled={STAGE_SEMANTIC: False, STAGE_QE: False})
        once, _ = run_pipeline(corpus.train, cfg, ScorerSet(langid=scorers))
        twice, report2 = run_pipeline(once, cfg, ScorerSet(langid=scorers))
        assert twice == once
        assert all(not s.drop_reasons for s in report2.stages)

    def test_threshold_monotonicity(self, toy_setup):
        spec, scorers = toy_setup
        corpus = generate_synthetic_corpus(
            spec, SplitSpec(train_size=150, dev_size=10, devtest_size=10),
            NoiseRates(wrong_lang=0.15), seed=24)
        kept_sets = []
        for thr in (0.3, 0.6, 0.9):
            cfg = FilterConfig(threshold=thr,
                               stages_enabled={STAGE_SEMANTIC: False, STAGE_QE: False})
            kept, _ = run_pipeline(corpus.train, cfg, ScorerSet(langid=scorers))
            kept_sets.append({id(r) for r in kept})
        assert kept_sets[2] <= kept_sets[1] <= kept_sets[0]

    def test_missing_scorer_for_enabled_stage_errors(self):
        cfg = FilterConfig(stages_enabled={STAGE_SEMANTIC: False, STAGE_QE: False})
        with pytest.raises(ValueError, match="langid"):
            run_pipeline([CLEAN], cfg, ScorerSet())

    def test_report_json_shape(self, toy_setup):
        _, scorers = toy_setup
        cfg = FilterConfig(stages_enabled={STAGE_SEMANTIC: False, STAGE_QE: False})
        _, report = run_pipeline([CLEAN, rec("zz", "yy")], cfg,
                                 ScorerSet(langid=scorers))
        obj = json.loads(report.to_json())
        assert obj["n_in"] == 2
        assert [s["stage"] for s in obj["stages"]] == [STAGE_RULE, STAGE_LANG]


ECHO_SCORER = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    obj = json.loads(line)\n"
    "    print('0.9' if len(obj['src']) > 3 else '0.1', flush=True)\n"
)


WORDY_SCORER = (
    "import sys\n"
    "for i, line in enumerate(sys.stdin):\n"
    "    print('0.5' if i == 0 else 'high', flush=True)\n"
)


STUBBORN_SCORER = (
    "import signal, sys, time\n"
    "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
    "sys.stdin.read()\n"
    "time.sleep(60)\n"
)


SLEEPY_SCORER = (
    "import sys, time\n"
    "sys.stdin.readline()\n"
    "print('0.5', flush=True)\n"
    "sys.stdin.readline()\n"
    "time.sleep(60)\n"
)


RECORDING_SCORER = (
    "import sys\n"
    "with open(sys.argv[1], 'w', encoding='utf-8') as f:\n"
    "    for line in sys.stdin:\n"
    "        f.write(line)\n"
    "        print('0.5', flush=True)\n"
)


QUITTER_SCORER = (
    "import sys\n"
    "sys.stdin.readline()\n"
    "print('0.5', flush=True)\n"
    "sys.exit(3)\n"
)


class TestSubprocessScorer:
    def test_line_protocol_roundtrip(self):
        with SubprocessScorer([sys.executable, "-c", ECHO_SCORER]) as scorer:
            high, low = scorer.score_batch([rec("long enough", "tgt text"),
                                            rec("ab", "tgt text")])
        assert high == 0.9
        assert low == 0.1

    def test_strict_ordering(self):
        records = [rec("ab" if i % 3 else f"text {i}", "t") for i in range(10)]
        with SubprocessScorer([sys.executable, "-c", ECHO_SCORER]) as scorer:
            values = scorer.score_batch(records)
        assert values == [0.1 if i % 3 else 0.9 for i in range(10)]

    def test_as_qe_stage_scorer(self):
        records = [rec("long enough", "tgt text"), rec("abc", "tgt text")]
        with SubprocessScorer([sys.executable, "-c", ECHO_SCORER]) as scorer:
            kept, report = quality_estimation_filter(records, scorer, FilterConfig())
        assert kept == records[:1]
        assert report.drop_reasons == {"quality": 1}

    def test_payload_is_the_corpus_jsonl_line(self, tmp_path):
        seen = tmp_path / "seen.jsonl"
        records = [rec("zilo unat dumo", "nulo erin bidu", origin="kd:1234abcd"),
                   rec("trel «é»", "sani", sl="bnu_Latn", tl="anu_Latn")]
        with SubprocessScorer([sys.executable, "-c", RECORDING_SCORER,
                               str(seen)]) as scorer:
            assert scorer.score_batch(records) == [0.5, 0.5]
        assert seen.read_text(encoding="utf-8").splitlines() == [
            record_to_json(r) for r in records]

    def test_non_numeric_reply_names_scorer_and_record(self):
        records = [rec("long enough", "tgt text"), rec("abc", "tgt text")]
        with SubprocessScorer([sys.executable, "-c", WORDY_SCORER],
                              name="wordy") as scorer:
            with pytest.raises(ValueError, match=r"wordy: .*'high' for record 1"):
                scorer.score_batch(records)

    def test_read_deadline_kills_a_silent_scorer(self, monkeypatch):
        monkeypatch.setattr(filtering, "READ_TIMEOUT_S", 0.5)
        records = [rec("long enough", "tgt text"), rec("abc", "tgt text")]
        scorer = SubprocessScorer([sys.executable, "-c", SLEEPY_SCORER], name="sleepy")
        start = time.monotonic()
        with pytest.raises(ScorerTimeoutError, match=r"sleepy: .*record 1") as info:
            scorer.score_batch(records)
        assert time.monotonic() - start < 10
        assert isinstance(info.value, TimeoutError)
        assert scorer._proc.poll() is not None
        scorer.close()

    def test_close_kills_a_scorer_that_outlives_the_timeout(self, monkeypatch):
        monkeypatch.setattr(filtering, "CLOSE_TIMEOUT_S", 0.5)
        scorer = SubprocessScorer([sys.executable, "-c", STUBBORN_SCORER])
        with pytest.raises(subprocess.TimeoutExpired):
            scorer.close()
        assert scorer._proc.poll() is not None

    def test_early_exit_names_scorer_record_and_exit_code(self):
        # the next record's write may hit a closed pipe or its read the end
        # of the output, depending on timing: both raise the same error
        records = [rec("long enough", "tgt text")] * 3
        with SubprocessScorer([sys.executable, "-c", QUITTER_SCORER],
                              name="quitter") as scorer:
            with pytest.raises(ScorerExitedError,
                               match=r"^quitter: .*code 3 .*record 1$") as info:
                scorer.score_batch(records)
            assert isinstance(info.value, RuntimeError)
            assert scorer._proc.poll() is not None

    def test_write_to_an_exited_scorer_raises_the_named_error(self):
        scorer = SubprocessScorer([sys.executable, "-c", "import sys; sys.exit(3)"],
                                  name="gone")
        scorer._proc.wait()
        with pytest.raises(ScorerExitedError, match=r"^gone: .*code 3 .*record 0$"):
            scorer.score_batch([rec("long enough", "tgt text")])
        scorer.close()


def _pivot_inputs(corpus, n):
    """Both sides of n records of corpus, with every fourth target re-paired
    to the next record's, so the semantic stage keeps some and drops some."""
    records = list(corpus.train[:n])
    for i in range(0, n - 1, 4):
        records[i] = ParallelRecord(src_lang=records[i].src_lang,
                                    tgt_lang=records[i].tgt_lang,
                                    src=records[i].src, tgt=records[i + 1].tgt)
    return records


def _unsplit_profiles(embedder, texts, langs) -> bytes:
    """The profile bytes of every text, its non-pivot rows all decoded,
    repeats included, in one translate_batch call."""
    todo = [i for i, l in enumerate(langs) if l != embedder.pivot_lang]
    results = translate_batch(embedder.model,
                              [(texts[i], langs[i], embedder.pivot_lang) for i in todo],
                              beam_size=1, max_len=embedder.max_len)
    pivot_texts = list(texts)
    for i, r in zip(todo, results):
        pivot_texts[i] = detokenize(r.tokens, embedder.model.vocab)
    return b"".join(embedder._profile(t).tobytes() for t in pivot_texts)


@pytest.fixture
def decoded(monkeypatch):
    """The (src, src_lang) rows of each bench.decode_corpus call, in order."""
    calls = []
    decode_corpus = bench.decode_corpus

    def spy(model, records, cfg):
        calls.append([(r.src, r.src_lang) for r in records])
        return decode_corpus(model, records, cfg)

    monkeypatch.setattr(bench, "decode_corpus", spy)
    return calls


class TestModelScorersOnEveryCpu:
    def test_embeddings_equal_one_translate_batch(self, pivot_model, use_cpus):
        model, corpus = pivot_model
        records = _pivot_inputs(corpus, 400)
        texts = [t for r in records for t in (r.src, r.tgt)]
        langs = [l for r in records for l in (r.src_lang, r.tgt_lang)]
        embedder = PivotTranslationEmbedder(model, "anu_Latn", max_len=48)
        todo = [i for i, l in enumerate(langs) if l != "anu_Latn"]
        count = encoder_token_count(model.vocab)
        assert sum(count(records[i // 2]) for i in todo) > 2 * SEMANTIC_TOKEN_BUDGET

        want = _unsplit_profiles(embedder, texts, langs)
        for cpus in (1, 2):
            use_cpus(cpus)
            got = embedder.embed_batch(texts, langs)
            assert b"".join(v.tobytes() for v in got) == want

    def test_bidirectional_input_decodes_each_distinct_text_once(self, pivot_model,
                                                                 use_cpus, decoded):
        model, corpus = pivot_model
        # every record once per direction: each bnu text is a src and a tgt
        records = [r for fwd in _pivot_inputs(corpus, 200)
                   for r in (fwd, ParallelRecord(src_lang=fwd.tgt_lang, tgt_lang=fwd.src_lang,
                                                 src=fwd.tgt, tgt=fwd.src))]
        texts = [t for r in records for t in (r.src, r.tgt)]
        langs = [l for r in records for l in (r.src_lang, r.tgt_lang)]
        todo = [i for i, l in enumerate(langs) if l != "anu_Latn"]
        distinct = list(dict.fromkeys((texts[i], langs[i]) for i in todo))
        assert len(todo) == 2 * len(distinct)
        count = encoder_token_count(model.vocab)
        assert sum(count(rec(t, "", l)) for t, l in distinct) > SEMANTIC_TOKEN_BUDGET

        embedder = PivotTranslationEmbedder(model, "anu_Latn", max_len=48)
        want = _unsplit_profiles(embedder, texts, langs)
        for cpus in (1, 2):
            use_cpus(cpus)
            decoded.clear()
            got = embedder.embed_batch(texts, langs)
            assert decoded == [distinct]
            assert b"".join(v.tobytes() for v in got) == want

    def test_same_text_in_two_languages_decodes_twice(self, pivot_model, decoded):
        model, _ = pivot_model
        text = "nulo erin bidu sani"
        embedder = PivotTranslationEmbedder(model, "anu_Latn", max_len=48)
        got = embedder.embed_batch([text] * 4, ["bnu_Latn", "cnu_Latn", "bnu_Latn", "anu_Latn"])
        assert decoded == [[(text, "bnu_Latn"), (text, "cnu_Latn")]]
        assert got[0].tobytes() == got[2].tobytes()
        assert got[3].tobytes() == embedder._profile(text).tobytes()

    @pytest.mark.parametrize("n_texts,n_langs", [(3, 1), (1, 2)])
    def test_texts_and_langs_of_different_lengths_are_an_error(self, pivot_model,
                                                                n_texts, n_langs):
        embedder = PivotTranslationEmbedder(pivot_model[0], "anu_Latn")
        with pytest.raises(ValueError, match=rf"^embed_batch got {n_texts} texts but "
                                             rf"{n_langs} languages$"):
            embedder.embed_batch(["zilo unat"] * n_texts, ["bnu_Latn"] * n_langs)

    def test_external_qe_scorer_beside_a_forking_semantic_stage(self, pivot_model,
                                                                use_cpus):
        # fork copies only the calling thread: the scorer's reader thread
        # and its pipes must come through the semantic stage's map untouched
        model, corpus = pivot_model
        records = _pivot_inputs(corpus, 200)
        cfg = FilterConfig(stages_enabled={STAGE_LANG: False})
        embedder = PivotTranslationEmbedder(model, "anu_Latn", max_len=48)
        runs = []
        for cpus in (1, 2):
            use_cpus(cpus)
            scorer = SubprocessScorer([sys.executable, "-c", ECHO_SCORER])
            kept, report = run_pipeline(records, cfg,
                                        ScorerSet(embedder=embedder, qe=scorer))
            scorer.close()
            assert scorer._proc.returncode == 0
            runs.append((kept, report.to_json()))
        assert runs[1] == runs[0]
        assert 0 < len(runs[0][0]) < len(records)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestOverLongRecords:
    """A pair within the rule-based stage's length rules can still exceed
    the model's max_positions; each model stage then stops with an error
    that names the stage and the record's position in its input (after a
    skip-listed record, and in a later decode batch)."""

    LONG = " ".join(["nulo", "erin", "bidu"] * 11)    # 164 characters

    @pytest.fixture(scope="class")
    def model(self):
        spec = ToyLanguageSpec()
        vocab = build_vocab(spec.alphabet(), spec.languages)
        config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, ffn_dim=16,
                             n_encoder_layers=1, n_decoder_layers=1, max_positions=64)
        return init_model(config, vocab, Rng(0))

    def _records(self):
        # distinct sources of 21 tokens each: the semantic stage decodes
        # each distinct text once, and 8 of them fill a 200-token batch
        shorts = [rec(" ".join(words), "zilo unat dumo trel", "bnu_Latn", "anu_Latn")
                  for words in itertools.islice(
                      itertools.permutations(["nulo", "erin", "bidu", "sani"]), 9)]
        records = [rec("osum ikke tove", "zilo unat dumo", "cnu_Latn", "anu_Latn"),
                   *shorts[:8], rec(self.LONG, self.LONG, "bnu_Latn", "anu_Latn"),
                   shorts[8]]
        kept, _ = rule_based_filter(records)
        assert self.LONG in {r.src for r in kept}
        return records

    def _semantic_error(self, model, monkeypatch, use_cpus, records):
        use_cpus(2)
        # a budget that puts the long source in the second decode batch
        monkeypatch.setattr(filtering, "SEMANTIC_TOKEN_BUDGET", 200)
        cfg = FilterConfig(skip_languages={STAGE_SEMANTIC: ["cnu_Latn"]})
        embedder = PivotTranslationEmbedder(model, "anu_Latn", max_len=4)
        with pytest.raises(OverLongError, match=r"^semantic stage, record 9: source "
                                                r"exceeds max_positions=64") as info:
            semantic_filter(records, embedder, cfg)
        assert info.value.index == 9

    def test_semantic_stage_names_the_record(self, model, monkeypatch, use_cpus):
        self._semantic_error(model, monkeypatch, use_cpus, self._records())

    def test_semantic_stage_names_the_first_record_of_a_repeated_text(
            self, model, monkeypatch, use_cpus):
        # the long text again, as the target of the reverse pair
        records = [*self._records(), rec(self.LONG, self.LONG, "anu_Latn", "bnu_Latn")]
        self._semantic_error(model, monkeypatch, use_cpus, records)

    def test_quality_estimation_stage_names_the_record(self, model):
        cfg = FilterConfig(skip_languages={STAGE_QE: ["cnu_Latn"]})
        qe = filtering.ForcedLogProbQualityScorer(model)
        with pytest.raises(OverLongError, match=r"^quality_estimation stage, record 9: "
                                                r"source exceeds max_positions=64") as info:
            quality_estimation_filter(self._records(), qe, cfg)
        assert info.value.index == 9
