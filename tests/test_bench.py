import pytest

from minimt.bench import (
    DecodeConfig,
    batch_by_tokens,
    decode_corpus,
)
from minimt.corpus import ParallelRecord
from minimt.model import ModelConfig, init_model
from minimt.rng import Rng
from minimt.vocab import build_vocab


class Rec:
    def __init__(self, n):
        self.src = "x" * n
        self.src_lang = "anu_Latn"
        self.tgt_lang = "bnu_Latn"


def by_len(r):
    return len(r.src)


class TestBatchByTokens:
    def test_simple_packing(self):
        records = [Rec(400), Rec(400), Rec(400)]
        batches = batch_by_tokens(records, 1024, by_len)
        assert [len(b) for b in batches] == [2, 1]

    def test_budget_covers_everything(self):
        records = [Rec(10) for _ in range(7)]
        assert len(batch_by_tokens(records, 1000, by_len)) == 1

    def test_oversized_record_is_named(self):
        with pytest.raises(ValueError, match="record 1"):
            batch_by_tokens([Rec(5), Rec(2000)], 1024, by_len)

    def test_concatenation_reproduces_input_order(self):
        rng = Rng(8)
        records = [Rec(int(n)) for n in rng.integers(1, 300, 57)]
        batches = batch_by_tokens(records, 512, by_len)
        flat = [r for b in batches for r in b]
        assert flat == records
        for b in batches:
            assert sum(by_len(r) for r in b) <= 512

    def test_empty_input(self):
        assert batch_by_tokens([], 100, by_len) == []


@pytest.fixture(scope="module")
def model():
    vocab = build_vocab("abcdef ", ["anu_Latn", "bnu_Latn"])
    cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, ffn_dim=32,
                      n_encoder_layers=2, n_decoder_layers=2, max_positions=48)
    return init_model(cfg, vocab, Rng(17))


def records(n=6):
    return [ParallelRecord(src_lang="anu_Latn", tgt_lang="bnu_Latn",
                           src=f"abc de f{i % 10}", tgt="fed") for i in range(n)]


class FakeClock:
    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestBench:
    def test_token_counting_matches_decode(self, model):
        cfg = DecodeConfig(beam_size=1, batch_token_budget=64, max_output_length=8)
        run = decode_corpus(model, records(4), cfg)
        from minimt.decode import translate_batch

        results = translate_batch(
            model, [(r.src, r.src_lang, r.tgt_lang) for r in records(4)],
            beam_size=1, max_len=8)
        assert run.output_tokens == sum(len(r.tokens) for r in results)

    @pytest.mark.parametrize("beam", [1, 3])
    def test_parallel_run_equals_serial(self, model, use_cpus, beam):
        cfg = DecodeConfig(beam_size=beam, batch_token_budget=48, max_output_length=8)
        runs = []
        for cpus in (1, 2):
            use_cpus(cpus)
            runs.append(decode_corpus(model, records(9), cfg, warmup_batches=1))
        assert runs[0].n_batches > 2
        assert runs[0].hypotheses == runs[1].hypotheses
        assert runs[0].output_tokens == runs[1].output_tokens

    def test_throughput_definition_with_fake_clock(self, model):
        clock = FakeClock(step=0.5)
        cfg = DecodeConfig(beam_size=1, batch_token_budget=1024, max_output_length=8)
        result = decode_corpus(model, records(5), cfg, warmup_batches=0,
                               clock=clock)
        assert result.timed_seconds > 0
        want = result.output_tokens / result.timed_seconds
        assert result.tokens_per_second == pytest.approx(want)
        assert result.total_seconds >= result.timed_seconds

    def test_zero_output_tokens_no_division_error(self, model, monkeypatch):
        # all-empty outputs (immediate eos everywhere): throughput is 0
        from minimt.decode import BeamResult
        import minimt.bench as bench_mod

        monkeypatch.setattr(
            bench_mod, "translate_batch",
            lambda m, items, beam_size, max_len: [
                BeamResult((), -1.0, -1.0, True) for _ in items])
        cfg = DecodeConfig(beam_size=1, batch_token_budget=1024, max_output_length=4)
        result = decode_corpus(model, records(3), cfg, warmup_batches=0)
        assert result.output_tokens == 0
        assert result.tokens_per_second == 0.0

    def test_warmup_excluded_from_timed_but_in_total(self, model):
        clock = FakeClock(step=1.0)
        cfg = DecodeConfig(beam_size=1, batch_token_budget=64, max_output_length=6)
        result = decode_corpus(model, records(6), cfg, warmup_batches=1,
                               clock=clock)
        assert result.total_seconds > result.timed_seconds

    def test_negative_warmup_rejected_before_any_decode(self, model, monkeypatch):
        import minimt.bench as bench_mod

        calls = []
        monkeypatch.setattr(bench_mod, "translate_batch",
                            lambda *a, **k: calls.append(a))
        cfg = DecodeConfig(beam_size=1, batch_token_budget=64, max_output_length=6)
        with pytest.raises(ValueError, match="warmup_batches"):
            decode_corpus(model, records(6), cfg, warmup_batches=-1)
        assert calls == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_size=0)
