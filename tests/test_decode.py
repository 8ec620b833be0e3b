import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimt.decode import (
    ROW_CHUNK,
    NonFiniteLogitsError,
    _encode,
    _ModelStepper,
    beam_search_over_stepper,
    encode_np,
    forced_token_logprobs,
    full_decoder_logits_np,
    removal_translations,
    translate_batch,
    translate_records,
)
from minimt.model import (
    DECODER,
    ENCODER,
    ModelConfig,
    build_batch,
    compute_params,
    decode_batch,
    decoder_start_ids,
    encode_batch,
    encoder_input_ids,
    init_model,
    pad_bias,
    quantize_fp16,
    remove_layers,
)
from minimt.rng import Rng
from minimt.vocab import build_vocab

from .gradcheck import FakeRecord
from .oracles.beam_reference import _beam_loop
from .oracles.stepper_reference import ReferenceStepper


@pytest.fixture(scope="module")
def model():
    vocab = build_vocab("abcdef ", ["anu_Latn", "bnu_Latn"])
    cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, ffn_dim=32,
                      n_encoder_layers=2, n_decoder_layers=3, max_positions=48)
    return init_model(cfg, vocab, Rng(99))


class TableStepper:
    """Hand-set logits per generated prefix; for beam-vs-enumeration tests.
    table is shared by every sample, or a list with one table per sample.
    advanced records the sample of each row every advance received."""

    def __init__(self, table, vocab_size, n_samples=1, beam_size=1, default=None):
        self.tables = table if isinstance(table, list) else [table] * n_samples
        self.default = default if default is not None else [0.0] * vocab_size
        self.rows = [(s, ()) for s in range(n_samples) for _ in range(beam_size)]
        self.advanced = []

    def _logits(self):
        return np.array([self.tables[s].get(seq, self.default) for s, seq in self.rows],
                        dtype=np.float32)

    def prime_logits(self):
        return self._logits()

    def reorder(self, parent_rows):
        self.rows = [self.rows[p] for p in parent_rows]

    def advance(self, token_ids, gen_index):
        self.advanced.append([s for s, _ in self.rows])
        self.rows = [(s, seq + (int(t),))
                     for (s, seq), t in zip(self.rows, token_ids, strict=True)]
        return self._logits()


def enumerate_best(table, vocab_size, eos, max_len, penalty=1.0, default=None):
    """Exhaustive search over every sequence of generated length <= max_len."""
    default = default if default is not None else [0.0] * vocab_size

    def logp(prefix):
        row = np.array(table.get(prefix, default), dtype=np.float64)
        return row - (np.log(np.exp(row - row.max()).sum()) + row.max())

    candidates = []

    def walk(prefix, lp):
        steps = logp(prefix)
        for tok in range(vocab_size):
            seq = prefix + (tok,)
            total = lp + steps[tok]
            if tok == eos:
                candidates.append((seq[:-1], total, total / len(seq) ** penalty))
            elif len(seq) < max_len:
                walk(seq, total)
            else:
                candidates.append((seq, total, total / len(seq) ** penalty))

    walk((), 0.0)
    finished = [c for c in candidates]
    return min(finished, key=lambda c: (-c[2], c[0]))


EOS = 2
RIGGED_TABLE = {
    (): [2.0, 1.8, -5.0],
    (0,): [0.5, 0.2, 3.0],
    (1,): [4.0, -1.0, -1.0],
    (1, 0): [-1.0, -1.0, 5.0],
}


class TestBeamCore:
    def test_beam2_matches_exhaustive_enumeration(self):
        stepper = TableStepper(RIGGED_TABLE, 3, beam_size=2)
        got = beam_search_over_stepper(stepper, 1, 3, EOS, beam_size=2, max_len=3)[0]
        want_tokens, want_lp, want_score = enumerate_best(RIGGED_TABLE, 3, EOS, 3)
        assert got.tokens == want_tokens
        assert got.score == pytest.approx(want_score, abs=1e-6)
        assert got.finished

    def test_exact_tie_breaks_to_lower_token(self):
        table = {
            (): [1.0, 1.0, -9.0],
            (0,): [-9.0, -9.0, 2.0],
            (1,): [-9.0, -9.0, 2.0],
        }
        stepper = TableStepper(table, 3, beam_size=2)
        got = beam_search_over_stepper(stepper, 1, 3, EOS, beam_size=2, max_len=2)[0]
        assert got.tokens == (0,)

    def test_forced_termination_without_eos(self):
        table = {(): [1.0, 0.0, -50.0]}  # eos essentially impossible
        default = [1.0, 0.0, -50.0]
        stepper = TableStepper(table, 3, beam_size=1, default=default)
        got = beam_search_over_stepper(stepper, 1, 3, EOS, beam_size=1, max_len=4)[0]
        assert not got.finished
        assert got.tokens == (0, 0, 0, 0)

    def test_immediate_eos(self):
        table = {(): [-9.0, -9.0, 3.0]}
        stepper = TableStepper(table, 3, beam_size=2)
        got = beam_search_over_stepper(stepper, 1, 3, EOS, beam_size=2, max_len=4)[0]
        assert got.finished
        assert got.tokens == ()

    @pytest.mark.parametrize("beam_size", [1, 2, 3])
    def test_batch_holds_only_samples_with_an_alive_beam(self, beam_size):
        # sample s prefers tokens 0, 1, 3 until it has generated lengths[s]
        # of them, then every beam prefers eos, so all its beams end at once
        lengths = (2, 1, 4, 1, 3)
        eos_row = [-9.0, -9.0, 5.0, -9.0]
        tables = [{seq: eos_row for seq in itertools.product((0, 1, 3), repeat=n)}
                  for n in lengths]
        stepper = TableStepper(tables, 4, n_samples=len(lengths),
                               beam_size=beam_size, default=[2.0, 1.5, -9.0, 1.0])
        got = beam_search_over_stepper(stepper, len(lengths), 4, EOS, beam_size,
                                       max_len=8)
        assert [len(r.tokens) for r in got] == list(lengths)
        assert all(r.finished for r in got)
        assert stepper.advanced == [
            [s for s, n in enumerate(lengths) if n > g for _ in range(beam_size)]
            for g in range(max(lengths))]


class TestEarlyStop:
    """A sample stops once no live beam can beat its best finished
    hypothesis: a descendant of a beam with cumulative log-probability cum
    scores at most cum / max_len."""

    def test_dominated_sample_leaves_on_that_step(self):
        # sample 0 ends at once with score ~-0.007, and its live beam's
        # bound, ~-5 / 4, cannot reach it; sample 1 goes on for two tokens
        tables = [{(): [0.0, -9.0, 5.0, -9.0]},
                  {(0, 0): [-9.0, -9.0, 5.0, -9.0]}]
        steppers = [TableStepper(tables, 4, n_samples=2, beam_size=2,
                                 default=[2.0, 1.5, -9.0, 1.0]) for _ in range(2)]
        got = beam_search_over_stepper(steppers[0], 2, 4, EOS, 2, max_len=4)
        assert [(r.tokens, r.finished) for r in got] == [((), True), ((0, 0), True)]
        assert steppers[0].advanced == [[1, 1], [1, 1]]
        assert got == _beam_loop(steppers[1], 2, 4, EOS, 2, 4)

    def test_a_bound_equal_to_the_best_score_keeps_decoding(self):
        # a row with one finite logit has log-probability 0 there, and with
        # two equal ones u = -log 2 each. (1, eos) finishes at step 1 with
        # score u / 2; the live (0, 0) has cum 2u, whose bound 2u / 4 equals
        # it, so it goes on to (0, 0, 0, eos), which ties on score and wins
        # on its lower first token
        inf = -np.inf
        table = {(): [0.0, 0.0, inf, inf],
                 (0,): [0.0, inf, inf, 0.0],
                 (1,): [inf, inf, 0.0, inf],
                 (0, 0): [0.0, inf, inf, inf],
                 (0, 0, 0): [inf, inf, 0.0, inf]}
        stepper = TableStepper(table, 4, beam_size=2)
        got = beam_search_over_stepper(stepper, 1, 4, EOS, 2, max_len=4)[0]
        u = -np.log(2.0)
        assert (got.tokens, got.finished, got.score) == ((0, 0, 0), True, u / 2)
        assert len(stepper.advanced) == 3


class TestGreedyTies:
    """Beam 1 picks each live row's token with one row-wise argmax over its
    scores; among equal top scores the lowest token id wins, as in the
    per-sample beam loop."""

    # vocab 4, eos 2; every step's top score is shared by two or three tokens
    TABLES = [
        {(): [1.0, 1.0, 1.0, 0.0],            # 0 over 1 and eos
         (0,): [0.0, 3.0, 3.0, 3.0],          # 1 over eos and 3
         (0, 1): [-9.0, -9.0, 5.0, -9.0]},
        {(): [0.0, 0.0, 2.0, 2.0]},           # eos over 3: ends at once
        {(): [0.0, 2.0, 0.0, 2.0],            # 1 over 3
         (1,): [2.0, 0.0, 2.0, 0.0],          # 0 over eos
         (1, 0): [3.0, 3.0, -9.0, -9.0],      # 0 over 1
         (1, 0, 0): [-9.0, -9.0, 5.0, -9.0]},
        {(): [0.0, 4.0, 0.0, 4.0],            # 1 over 3
         (1,): [0.0, 0.0, 4.0, 4.0]},         # eos over 3
    ]

    def test_lowest_token_wins_and_samples_leave_when_they_end(self):
        stepper = TableStepper(self.TABLES, 4, n_samples=4)
        got = beam_search_over_stepper(stepper, 4, 4, EOS, 1, max_len=6)
        assert [r.tokens for r in got] == [(0, 1), (), (1, 0, 0), (1,)]
        assert all(r.finished for r in got)
        assert stepper.advanced == [[0, 2, 3], [0, 2], [2]]
        assert got == beam_search_oracle(self.TABLES, 4, 4, max_len=6)

    def test_equals_the_beam_loop_on_tied_tables(self):
        """Random tables of small integer logits, so that most steps tie,
        with a default that keeps some samples going until max_len."""
        n_samples, vocab_size, max_len = 5, 4, 5
        default = [1.0, 1.0, 0.0, 0.0]
        prefixes = [p for n in range(4) for p in itertools.product(range(4), repeat=n)]
        finished = set()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            tables = [{p: rng.integers(0, 3, vocab_size).astype(float).tolist()
                       for p in prefixes if rng.random() < 0.7}
                      for _ in range(n_samples)]
            stepper = TableStepper(tables, vocab_size, n_samples=n_samples,
                                   default=default)
            got = beam_search_over_stepper(stepper, n_samples, vocab_size, EOS, 1,
                                           max_len)
            assert got == beam_search_oracle(tables, n_samples, vocab_size, max_len,
                                             default), seed
            finished |= {r.finished for r in got}
        assert finished == {True, False}


def beam_search_oracle(tables, n_samples, vocab_size, max_len, default=None):
    """The per-sample beam loop at beam 1."""
    stepper = TableStepper(tables, vocab_size, n_samples=n_samples, default=default)
    return _beam_loop(stepper, n_samples, vocab_size, EOS, 1, max_len)


def _random_case(rng):
    """A batch of 1-5 samples over a vocabulary of 4 or 5: one table of
    small integer logits per sample, so that scores tie at most steps. Some
    samples share their table, some tables give every prefix of a length one
    row (so beams of different parents tie), a few rows are -inf in part or
    whole (no finite candidate), and the default row for prefixes a table
    lacks may keep a sample going until max_len."""
    vocab_size = int(rng.integers(4, 6))
    n_samples = int(rng.integers(1, 6))
    max_len = int(rng.integers(1, 6))
    words = [t for t in range(vocab_size) if t != EOS]
    prefixes = [p for n in range(max_len) for p in itertools.product(words, repeat=n)]

    def row():
        if rng.random() < 0.03:
            return [-np.inf] * vocab_size
        logits = rng.integers(0, 3, vocab_size).astype(float)
        logits[rng.random(vocab_size) < 0.1] = -np.inf
        return logits.tolist()

    tables = []
    for _ in range(n_samples):
        if tables and rng.random() < 0.2:
            tables.append(tables[int(rng.integers(len(tables)))])
        elif rng.random() < 0.3:
            by_length = [row() for _ in range(max_len)]
            tables.append({p: by_length[len(p)] for p in prefixes})
        else:
            tables.append({p: row() for p in prefixes if rng.random() < 0.7})
    default = rng.integers(0, 3, vocab_size).astype(float)
    if rng.random() < 0.5:
        default[EOS] = -3.0
    return tables, vocab_size, n_samples, max_len, default.tolist()


@pytest.mark.parametrize("beam_size", [1, 2, 3, 4])
def test_beam_search_equals_the_reference_loop_on_tied_tables(beam_size):
    """beam_search_over_stepper returns the reference loop's BeamResults on
    60 random batches per beam size. Across them, samples stop at different
    steps, some reach max_len unfinished, some end with no finite
    candidate, and (beams >= 2) some stop before the reference loop lets
    them."""
    seen = set()
    for seed in range(60):
        tables, vocab_size, n_samples, max_len, default = _random_case(
            np.random.default_rng([beam_size, seed]))

        def run(search):
            stepper = TableStepper(tables, vocab_size, n_samples, beam_size, default)
            with np.errstate(invalid="ignore"):
                return search(stepper, n_samples, vocab_size, EOS, beam_size,
                              max_len), stepper.advanced

        (got, advanced), (want, want_advanced) = (run(beam_search_over_stepper),
                                                  run(_beam_loop))
        assert got == want, seed
        steps = [sum(s in rows for rows in advanced) for s in range(n_samples)]
        if len(set(steps)) > 1:
            seen.add("stop at different steps")
        if any(not r.finished and len(r.tokens) == max_len for r in got):
            seen.add("max_len unfinished")
        if any(r.score == -np.inf for r in got):
            seen.add("no finite candidate")
        if sum(map(len, advanced)) < sum(map(len, want_advanced)):
            seen.add("early stop")
    assert seen == {"stop at different steps", "max_len unfinished",
                    "no finite candidate"} | ({"early stop"} if beam_size > 1 else set())


class TestModelDecode:
    def test_beam1_equals_greedy_chain_from_teacher_forcing(self, model):
        v = model.vocab
        res = translate_batch(model, [("abc fed", "anu_Latn", "bnu_Latn")],
                              beam_size=1, max_len=8)[0]
        # reference: repeated teacher-forced pass + argmax at the last position
        src = encoder_input_ids(v, "abc fed", "anu_Latn")
        prefix = []
        for _ in range(8):
            dec_in = np.array([decoder_start_ids(v, "bnu_Latn") + prefix])
            logits = full_decoder_logits_np(model, np.array([src]),
                                            np.array([len(src)]), dec_in)
            nxt = int(np.argmax(logits[0, -1]))
            if nxt == v.eos:
                break
            prefix.append(nxt)
        assert list(res.tokens) == prefix

    def test_batch_composition_does_not_change_results(self, model):
        items = [("abc", "anu_Latn", "bnu_Latn"),
                 ("fedcba fed", "bnu_Latn", "anu_Latn"),
                 ("ca", "anu_Latn", "bnu_Latn")]
        together = translate_batch(model, items, beam_size=2, max_len=10)
        solo = [translate_batch(model, [it], beam_size=2, max_len=10)[0]
                for it in items]
        for a, b in zip(together, solo):
            assert a.tokens == b.tokens
            assert a.logprob == pytest.approx(b.logprob, abs=1e-4)

    def test_decode_is_deterministic(self, model):
        items = [("abcd", "anu_Latn", "bnu_Latn")]
        a = translate_batch(model, items, beam_size=3, max_len=12)[0]
        b = translate_batch(model, items, beam_size=3, max_len=12)[0]
        assert a == b

    def test_larger_beam_never_scores_lower_on_rigged_tables(self):
        # trained-model version of this property lives in the toy pipeline
        # tests; here the rigged tables make containment exact
        for table in (RIGGED_TABLE, {(): [1.0, 1.0, -9.0],
                                     (0,): [-9.0, -9.0, 2.0],
                                     (1,): [-9.0, -9.0, 2.0]}):
            scores = []
            for k in (1, 2, 3):
                stepper = TableStepper(table, 3, beam_size=k)
                res = beam_search_over_stepper(stepper, 1, 3, EOS, k, max_len=3)[0]
                scores.append(res.score)
            assert scores[0] <= scores[1] + 1e-12
            assert scores[1] <= scores[2] + 1e-12

    @pytest.mark.parametrize("beam_size", [2, 3, 4])
    def test_beam_search_equals_the_reference_loop(self, model, beam_size):
        """translate_batch returns the reference loop's BeamResults over a
        batch of both directions and unequal lengths, for the model as
        built, whose samples finish at different lengths, and for a copy
        with larger residual branches and eos logits, most of whose samples
        reach max_len."""
        sources = [("abc fed", "anu_Latn", "bnu_Latn"), ("fedcba", "bnu_Latn", "anu_Latn"),
                   ("a", "anu_Latn", "bnu_Latn"), ("cab dab e", "bnu_Latn", "anu_Latn"),
                   ("", "anu_Latn", "bnu_Latn"), ("dd", "bnu_Latn", "anu_Latn")]
        scaled = model.clone()
        for name, a in scaled.params.items():
            if name.endswith((".wo", ".w2")):
                a *= 8
        scaled.params["embedding"][model.vocab.eos] *= 3
        finished = set()
        for m in (model, scaled):
            got = translate_batch(m, sources, beam_size, max_len=12)
            stepper = _ModelStepper(m, [t for _, _, t in sources], _encode(m, sources),
                                    beam_size)
            assert got == _beam_loop(stepper, len(sources), len(m.vocab), m.vocab.eos,
                                     beam_size, 12)
            finished |= {r.finished for r in got}
        assert finished == {True, False}

    def test_empty_batch(self, model):
        assert translate_batch(model, []) == []

    @pytest.mark.parametrize("beam_size", [1, 3])
    def test_non_finite_weights_raise_a_named_error(self, model, beam_size):
        broken = model.clone()
        broken.params["dec.0.ffn.w1"][0, 0] = np.nan
        with pytest.raises(NonFiniteLogitsError):
            translate_batch(broken, [("abc", "anu_Latn", "bnu_Latn"),
                                     ("fed", "bnu_Latn", "anu_Latn")],
                            beam_size=beam_size, max_len=8)

    def test_forced_logprobs_are_negative_and_finite(self, model):
        records = [FakeRecord("abc", "fed", "anu_Latn", "bnu_Latn")]
        lp = forced_token_logprobs(model, records)
        assert lp.shape == (1,)
        assert np.isfinite(lp[0]) and lp[0] < 0


LANGS = ("anu_Latn", "bnu_Latn")
WORD = st.text(alphabet="abcdef ", min_size=1, max_size=9)


def _tiny_models(n_enc, n_dec, n_heads, d_model, seed):
    """A random model, a copy with one layer per side removed and an fp16
    copy."""
    vocab = build_vocab("abcdef ", list(LANGS))
    cfg = ModelConfig(vocab_size=len(vocab), d_model=d_model, n_heads=n_heads,
                      ffn_dim=16, n_encoder_layers=n_enc,
                      n_decoder_layers=n_dec, max_positions=16)
    built = init_model(cfg, vocab, Rng(seed))
    pruned = remove_layers(built, DECODER, [seed % n_dec] if n_dec > 1 else [])
    pruned = remove_layers(pruned, ENCODER, [seed % n_enc] if n_enc > 1 else [])
    return built, pruned, quantize_fp16(built)


def _records(pairs):
    return [FakeRecord(src, tgt, lang, LANGS[1 - LANGS.index(lang)])
            for src, tgt, lang in pairs]


def _stepper_logits(model, records, beam_size, rng, samples=None, drop=0.0):
    """Feed a stepper over records[samples] (all of them by default) each
    record's teacher-forced tokens. Between steps each sample leaves the
    batch with probability drop (a reorder with fewer rows), and the rows of
    one sample are shuffled among themselves, which must not matter since
    they hold the same prefix. Returns {(sample, decoder position): logits
    (beam, vocab)} for every step each sample took part in."""
    _, _, dec_in, _ = build_batch(model.vocab, records, model.config.max_positions)
    live = list(range(len(records))) if samples is None else list(samples)
    sources = [(records[i].src, records[i].src_lang, records[i].tgt_lang) for i in live]
    stepper = _ModelStepper(model, [t for _, _, t in sources], _encode(model, sources),
                            beam_size)
    logits = stepper.prime_logits()
    out = {}
    for position in range(1, dec_in.shape[1]):
        if position > 1:
            stay = np.flatnonzero(rng.random(len(live)) >= drop)
            if not len(stay):
                break
            parents = (np.repeat(stay * beam_size, beam_size)
                       + rng.integers(0, beam_size, len(stay) * beam_size))
            live = [live[j] for j in stay]
            stepper.reorder(parents)
            logits = stepper.advance(np.repeat(dec_in[live, position], beam_size),
                                     position - 2)
        for j, s in enumerate(live):
            out[s, position] = logits[j * beam_size: (j + 1) * beam_size]
    return out


@settings(max_examples=20, deadline=None)
@given(n_enc=st.integers(1, 3), n_dec=st.integers(1, 3),
       n_heads=st.integers(1, 2), beam_size=st.integers(1, 2),
       seed=st.integers(0, 2**16),
       pairs=st.lists(st.tuples(WORD, WORD, st.sampled_from(LANGS)),
                      min_size=1, max_size=4))
def test_stepper_matches_teacher_forced_logits(n_enc, n_dec, n_heads, beam_size,
                                               seed, pairs):
    """The incremental decoder and the teacher-forced pass agree at every
    decoder position, for the model as built, after layer removal and
    after fp16 storage; sources in one batch have unequal lengths."""
    records = _records(pairs)
    rng = np.random.default_rng(seed)
    for model in _tiny_models(n_enc, n_dec, n_heads, 8 * n_heads, seed):
        src_ids, src_len, dec_in, _ = build_batch(model.vocab, records,
                                                  model.config.max_positions)
        full = full_decoder_logits_np(model, src_ids, src_len, dec_in)
        stepped = _stepper_logits(model, records, beam_size, rng, drop=0.2)
        got = np.stack(list(stepped.values()))
        want = np.stack([full[s, position] for s, position in stepped])[:, None]
        np.testing.assert_allclose(got, np.broadcast_to(want, got.shape),
                                   rtol=0, atol=1e-4)


@settings(max_examples=20, deadline=None)
@given(n_enc=st.integers(1, 2), n_dec=st.integers(1, 3),
       n_heads=st.integers(1, 2), beam_size=st.integers(1, 3),
       seed=st.integers(0, 2**16),
       pairs=st.lists(st.tuples(WORD, WORD, st.sampled_from(LANGS)),
                      min_size=2, max_size=5))
def test_stepper_rows_do_not_depend_on_the_batch(n_enc, n_dec, n_heads, beam_size,
                                                 seed, pairs):
    """A sample's logits are bit-identical whichever other samples share its
    stepper, also once samples leave the batch mid-run, for the model as
    built, after layer removal and after fp16 storage. The subset keeps the
    longest source, so the padded source width is the same."""
    records = _records(pairs)
    rng = np.random.default_rng(seed)
    lengths = [len(r.src) for r in records]
    longest = lengths.index(max(lengths))
    others = [i for i in range(len(records)) if i != longest]
    left_out = rng.choice(others, rng.integers(1, len(others) + 1), replace=False)
    subset = sorted(set(range(len(records))) - set(left_out.tolist()))
    for model in _tiny_models(n_enc, n_dec, n_heads, 16 * n_heads, seed):
        whole = _stepper_logits(model, records, beam_size, rng, drop=0.3)
        part = _stepper_logits(model, records, beam_size, rng, samples=subset,
                               drop=0.3)
        for key in part.keys() & whole.keys():
            assert np.array_equal(part[key], whole[key]), key


@pytest.mark.parametrize("beam_size, seed", [(1, 0), (2, 1), (3, 2)])
def test_layer_plan_stepper_matches_a_stepper_per_removal(beam_size, seed):
    """One stepper planned to decode every decoder-removal candidate of a
    4-layer model gives each candidate's rows, at every step, the logits of
    a _ModelStepper over remove_layers(model, DECODER, {j}), byte for byte.
    Samples leave at random, across the boundary between a depth's two runs
    of rows. Candidate 0 alone makes the first run at depth 0 and candidate
    3 alone the second at depth 2; each leaves whole while its depth's
    other run goes on."""
    n_dec = 4
    model = _tiny_models(2, n_dec, 2, 16, seed)[0]
    records = _records([("abc fed", "fedcba ab", "anu_Latn"), ("a", "bcdef", "bnu_Latn"),
                        ("fed cab ad", "ab e", "anu_Latn")])
    sources = [(r.src, r.src_lang, r.tgt_lang) for r in records]
    tgt_langs = [r.tgt_lang for r in records]
    _, _, dec_in, _ = build_batch(model.vocab, records, model.config.max_positions)
    depths = np.arange(n_dec - 1)
    plan = depths + (depths >= np.arange(n_dec)[:, None])
    grouped = _ModelStepper(model, tgt_langs, _encode(model, sources), beam_size, plan)
    single = [_ModelStepper(remove_layers(model, DECODER, {j}), tgt_langs,
                            _encode(model, sources), beam_size)
              for j in range(n_dec)]
    # the grouped stepper's samples as (candidate, source), and each single
    # stepper's as sources
    live = [(j, s) for j in range(n_dec) for s in range(len(records))]
    rng = np.random.default_rng(seed)
    leaves_whole = {2: 0, 3: n_dec - 1}
    got, want = grouped.prime_logits(), [st.prime_logits() for st in single]
    for position in range(1, dec_in.shape[1]):
        if position > 1:
            stay = ((rng.random(len(live)) >= 0.2)
                    & np.array([j != leaves_whole.get(position) for j, _ in live]))
            if not stay.any():
                break
            slots = rng.integers(0, beam_size, (len(live), beam_size))
            grouped.reorder(np.concatenate([i * beam_size + slots[i]
                                            for i in np.flatnonzero(stay)]))
            for j, st in enumerate(single):
                mine = [i for i, (c, _) in enumerate(live) if c == j]
                kept = [(rank, i) for rank, i in enumerate(mine) if stay[i]]
                if kept:
                    st.reorder(np.concatenate([rank * beam_size + slots[i]
                                               for rank, i in kept]))
                    want[j] = st.advance(np.repeat([dec_in[live[i][1], position]
                                                    for _, i in kept], beam_size),
                                         position - 2)
            live = [sample for sample, keep in zip(live, stay) if keep]
            got = grouped.advance(np.repeat([dec_in[s, position] for _, s in live],
                                            beam_size), position - 2)
            if position in leaves_whole:
                # the candidate's run is empty, the other is not
                j = leaves_whole[position]
                assert grouped.bounds[j] == grouped.bounds[j + 1] and live
        for i, (j, s) in enumerate(live):
            rank = [x for c, x in live if c == j].index(s)
            assert np.array_equal(got[i * beam_size: (i + 1) * beam_size],
                                  want[j][rank * beam_size: (rank + 1) * beam_size]), \
                (position, j, s)


def _removal_plan(n_dec: int, layers) -> np.ndarray:
    depths = np.arange(n_dec - 1)
    return depths + (depths >= np.asarray(layers)[:, None])


@pytest.mark.parametrize("beam_size", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stepper_equals_the_unshared_reference(beam_size, seed):
    """The stepper gives the logits of the unshared reference stepper
    (tests/oracles/stepper_reference.py), byte for byte, at every step,
    under the default plan and under removal plans of every candidate and
    of a block of them. Between steps each row continues a random row of
    its own sample, samples leave at random, and at one step a whole
    candidate leaves, the one at the boundary between a depth's tail and
    trunk. Each source mostly feeds one token to all its rows, so that the
    candidates' histories agree for a while and then split."""
    n_dec = 5
    model = _tiny_models(2, n_dec, 2, 16, seed)[0]
    records = _records([("abc fed", "", "anu_Latn"), ("a", "", "bnu_Latn"),
                        ("fed cab ad", "", "anu_Latn"), ("dab", "", "bnu_Latn")])
    sources = [(r.src, r.src_lang, r.tgt_lang) for r in records]
    tgt_langs = [r.tgt_lang for r in records]
    encoding = _encode(model, sources)
    n, k = len(sources), beam_size
    for layers in (None, range(n_dec), range(1, 4)):
        plan = None if layers is None else _removal_plan(n_dec, layers)
        groups = 1 if plan is None else len(plan)
        rng = np.random.default_rng(seed)
        got = _ModelStepper(model, tgt_langs, encoding, k, plan)
        want = ReferenceStepper(model, tgt_langs, encoding, k, plan)
        assert np.array_equal(got.prime_logits(), want.prime_logits())
        live = np.arange(groups * n)    # the stepper's samples, g * n + s
        for step in range(model.config.max_positions - 2):
            stay = rng.random(len(live)) >= 0.15
            if step == 3:
                stay &= live // n != groups // 2
            if not stay.any():
                break
            parents = (np.repeat(np.flatnonzero(stay) * k, k)
                       + rng.integers(0, k, int(stay.sum()) * k))
            live = live[stay]
            tokens = rng.integers(4, len(model.vocab), n)[np.repeat(live % n, k)]
            other = rng.random(len(tokens)) < 0.15
            tokens[other] = rng.integers(4, len(model.vocab), int(other.sum()))
            for stepper in (got, want):
                stepper.reorder(parents)
            assert np.array_equal(got.advance(tokens, step), want.advance(tokens, step)), \
                (layers, step)


@pytest.mark.parametrize("beam_size", [1, 3])
def test_removal_trunk_runs_once_per_source_at_priming(monkeypatch, beam_size):
    """Priming a stepper of all 12 decoder-removal candidates, the trunk at
    depth l (the candidates j > l, which run the parent's layer l) runs one
    row per source, where each of its 11 - l candidates' beam slots used to
    run one; the tail (the candidates j <= l, running layer l + 1) runs one
    row per candidate and source, as its beam slots agree."""
    import minimt.decode as decode_mod

    n_dec = 12
    model = _tiny_models(1, n_dec, 1, 8, 0)[0]
    records = _records([("abc", "", "anu_Latn"), ("fed a", "", "bnu_Latn"),
                        ("cab", "", "anu_Latn")])
    sources = [(r.src, r.src_lang, r.tgt_lang) for r in records]
    calls = []
    decoder_layer = decode_mod.decoder_layer

    def recording(w, i, x, *args):
        calls.append((i, len(x)))
        return decoder_layer(w, i, x, *args)

    monkeypatch.setattr(decode_mod, "decoder_layer", recording)
    _ModelStepper(model, [t for _, _, t in sources], _encode(model, sources),
                  beam_size, _removal_plan(n_dec, range(n_dec)))
    n = len(sources)
    tails = [(l + 1, (l + 1) * n) for l in range(n_dec - 1)]
    trunks = [(l, n) for l in range(n_dec - 1)]
    position = [call for pair in zip(tails, trunks) for call in pair]
    assert calls == position * 2


@pytest.mark.parametrize("change", ["split", "leave"])
def test_removal_classes_keep_their_slots(change):
    """In the trunk at depth 0 of a stepper of every decoder-removal
    candidate, five classes, one per source, hold slots 0 .. 4. After a
    step where source 1's class splits (group 2's rows take another
    token), or where all of source 1's rows leave, every other class
    keeps its slot, except that the last class takes the slot the leaving
    class gave up; the split-off class is appended at slot 5. Every class
    keeps its cache and cross bytes, the split-off class its parent's."""
    n_dec, n, k = 3, 5, 2
    model = _tiny_models(1, n_dec, 1, 8, 0)[0]
    records = _records([(word, "", "anu_Latn") for word in ("ab", "c", "fed", "d a", "eb")])
    sources = [(r.src, r.src_lang, r.tgt_lang) for r in records]
    stepper = _ModelStepper(model, [t for _, _, t in sources], _encode(model, sources),
                            k, _removal_plan(n_dec, range(n_dec)))
    # candidate 0 runs layer 1 at depth 0, candidates 1 and 2 the trunk
    run = stepper.runs[0][1]
    assert (run.layer, run.g0, run.g1) == (0, 1, 3)
    rows = np.arange(len(stepper.sample_of_row))
    source = stepper.sample_of_row % n
    token = 4 + np.arange(n)
    stepper.advance(token[source], 0)
    assert np.array_equal(run.cls, np.tile(np.repeat(np.arange(n), k), 2))

    cls, bounds = run.cls.copy(), list(stepper.bounds)
    cache, cross = [a.copy() for a in run.cache], [a.copy() for a in run.cross]
    parents = rows[source != 1] if change == "leave" else rows
    tok = token[source[parents]]
    if change == "split":
        tok[(stepper.sample_of_row // n == 2) & (source == 1)] = 4 + n
    stepper.reorder(parents)
    stepper.advance(tok, 1)

    old = cls[parents[stepper.bounds[1]: stepper.bounds[3]] - bounds[1]]
    want = old.copy()
    if change == "leave":
        want[old == n - 1] = 1
    else:
        want[tok[stepper.bounds[1]: stepper.bounds[3]] == 4 + n] = n
    assert np.array_equal(run.cls, want)
    for a, b in zip(run.cache, cache):
        assert np.array_equal(a[run.cls, :, :-1], b[old])
    for a, b in zip(run.cross, cross):
        assert np.array_equal(a[run.cls], b[old])


def test_encoder_candidates_branch_from_one_parent_pass(monkeypatch):
    """The encoder side runs the parent's encoder layers 0 .. L - 2 once,
    and candidate j only layers j + 1 .., so the candidates of a 4-layer
    encoder take 3 + 6 layer evaluations where a model per candidate took
    12."""
    import minimt.decode as decode_mod

    model = _tiny_models(4, 1, 1, 8, 0)[0]
    calls = []
    encoder_layer = decode_mod.encoder_layer

    def recording(w, i, *args):
        calls.append(i)
        return encoder_layer(w, i, *args)

    monkeypatch.setattr(decode_mod, "encoder_layer", recording)
    removal_translations(model, ENCODER, [("abc", "anu_Latn", "bnu_Latn")], range(4), 1, 6)
    assert calls == [0, 1, 2] + [1, 2, 3] + [2, 3] + [3]


@pytest.mark.parametrize("beam_size, side", [
    (1, DECODER), (3, DECODER), (1, ENCODER), (3, ENCODER)],
    ids=["1", "3", "1-encoder", "3-encoder"])
def test_removal_translations_decode_like_each_pruned_model(model, beam_size, side):
    """Every candidate of removal_translations, whole or in a block, gives
    the hypotheses translate_records gives for the model without that
    layer."""
    model = model.clone()
    # larger residual branches, so that the hypotheses differ in length
    for name, a in model.params.items():
        if name.endswith((".wo", ".w2")):
            a *= 8
    records = _records([("abc fed", "", "anu_Latn"), ("fedcba", "", "bnu_Latn"),
                        ("a", "", "anu_Latn"), ("cab dab", "", "bnu_Latn")])
    sources = [(r.src, r.src_lang, r.tgt_lang) for r in records]
    n = (model.config.n_encoder_layers if side == ENCODER
         else model.config.n_decoder_layers)
    want = [translate_records(remove_layers(model, side, {j}), records, beam_size, 12)
            for j in range(n)]
    assert any(h for hyps in want for h in hyps)
    assert removal_translations(model, side, sources, range(n), beam_size, 12) == want
    assert removal_translations(model, side, sources, range(1, n), beam_size, 12) == want[1:]


def test_removal_translations_reject_an_unknown_side(model):
    with pytest.raises(ValueError, match="'middle'"):
        removal_translations(model, "middle", [("abc", "anu_Latn", "bnu_Latn")],
                             range(1), 1, 12)


def _unchunked_pass(model, records):
    """Oracle: encoder output, logits and per-record forced log-probs from
    one encode_batch/decode_batch pass over the whole batch, with
    log-softmax written out on np.max."""
    src_ids, src_len, dec_in, dec_tgt = build_batch(model.vocab, records,
                                                    model.config.max_positions)
    w = compute_params(model)
    bias = pad_bias(src_len, src_ids.shape[1])
    enc = encode_batch(w, model.config, src_ids, bias)
    logits = decode_batch(w, model.config, enc, dec_in, bias)
    z = logits - np.max(logits, axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    forced = np.zeros(len(records), dtype=np.float64)
    for i in range(len(records)):
        keep = dec_tgt[i] != model.vocab.pad
        forced[i] = logp[i, np.arange(dec_tgt.shape[1]), dec_tgt[i]][keep].mean()
    return enc, logits, forced


@pytest.mark.parametrize("seed", [0, 1])
def test_row_chunked_passes_equal_one_unchunked_pass(seed):
    """encode_np, full_decoder_logits_np and forced_token_logprobs run in
    ROW_CHUNK-row chunks; over 2 * ROW_CHUNK + 3 rows of unequal lengths
    they equal one pass over the whole batch byte for byte, for the model
    as built, after layer removal and after fp16 storage."""
    rng = np.random.default_rng(seed)
    words = ["".join(rng.choice(list("abcdef "), rng.integers(1, 10)))
             for _ in range(2 * (2 * ROW_CHUNK + 3))]
    records = _records([(words[2 * i], words[2 * i + 1], LANGS[i % 2])
                        for i in range(2 * ROW_CHUNK + 3)])
    for model in _tiny_models(2, 3, 2, 16, seed):
        want_enc, want_logits, want_forced = _unchunked_pass(model, records)
        src_ids, src_len, dec_in, _ = build_batch(model.vocab, records,
                                                  model.config.max_positions)
        enc, _ = encode_np(compute_params(model), model.config, src_ids, src_len)
        logits = full_decoder_logits_np(model, src_ids, src_len, dec_in)
        forced = forced_token_logprobs(model, records)
        for got, want in ((enc, want_enc), (logits, want_logits),
                          (forced, want_forced)):
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_forced_blocks_equal_one_unblocked_pass(use_cpus, cpus):
    """forced_token_logprobs scores ROW_CHUNK-row blocks on every CPU;
    over more than two blocks of rows of unequal lengths its means equal
    those of one pass over the whole batch byte for byte, for the model as
    built, after layer removal and after fp16 storage."""
    use_cpus(cpus)
    rng = np.random.default_rng(5)
    n = 2 * ROW_CHUNK + 7
    words = ["".join(rng.choice(list("abcdef "), rng.integers(1, 10)))
             for _ in range(2 * n)]
    records = _records([(words[2 * i], words[2 * i + 1], LANGS[i % 2])
                        for i in range(n)])
    for model in _tiny_models(2, 3, 2, 16, 5):
        want = _unchunked_pass(model, records)[2]
        got = forced_token_logprobs(model, records)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()


def test_empty_batch_passes():
    """Zero rows give zero-row outputs; forced scoring of no records raises
    (build_batch has no width to pad to)."""
    m = _tiny_models(1, 1, 1, 8, 0)[0]
    src_ids, src_len = np.zeros((0, 5), dtype=np.int64), np.zeros(0, dtype=np.int64)
    enc, bias = encode_np(compute_params(m), m.config, src_ids, src_len)
    assert (enc.shape, bias.shape) == ((0, 5, 8), (0, 1, 1, 5))
    logits = full_decoder_logits_np(m, src_ids, src_len, np.zeros((0, 3), dtype=np.int64))
    assert (logits.shape, logits.dtype) == ((0, 3, len(m.vocab)), np.float32)
    with pytest.raises(ValueError):
        forced_token_logprobs(m, [])
