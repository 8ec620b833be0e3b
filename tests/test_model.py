import numpy as np
import pytest

from minimt.bench import DecodeConfig
from minimt.checkpoint import checkpoint_bytes
from minimt.decode import full_decoder_logits_np, translate_batch
from minimt.model import (
    ModelConfig,
    build_batch,
    init_model,
    quantize_fp16,
    remove_layers,
)
from minimt.rng import Rng
from minimt.training import TrainConfig
from minimt.vocab import build_vocab

from .gradcheck import FakeRecord, check_model_gradients


@pytest.fixture(scope="module")
def small_model():
    vocab = build_vocab("abcdef ", ["anu_Latn", "bnu_Latn"])
    config = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                         ffn_dim=32, n_encoder_layers=3, n_decoder_layers=4,
                         max_positions=32)
    return init_model(config, vocab, Rng(123))


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, d_model=10, n_heads=3)

    @pytest.mark.parametrize("make, field", [
        (lambda: ModelConfig(vocab_size=10, n_encoder_layers=2.5), "n_encoder_layers"),
        (lambda: ModelConfig(vocab_size=10, n_heads=0), "n_heads"),
        (lambda: ModelConfig(vocab_size=True), "vocab_size"),
        (lambda: DecodeConfig(beam_size=2.5), "beam_size"),
        (lambda: DecodeConfig(batch_token_budget=False), "batch_token_budget"),
        (lambda: TrainConfig(batch_size=2.5), "batch_size"),
        (lambda: TrainConfig(max_epochs=True), "max_epochs"),
        (lambda: TrainConfig(early_stop_patience=0), "early_stop_patience"),
    ])
    def test_counts_are_integers_of_at_least_one(self, make, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            make()

    def test_defaults_are_twelve_twelve(self):
        cfg = ModelConfig(vocab_size=10, d_model=8, n_heads=2)
        assert cfg.n_encoder_layers == 12
        assert cfg.n_decoder_layers == 12


def _logits(model, src, tgt, tgt_lang):
    """Teacher-forced logits of one record: decoder input [tag, bos] + tgt."""
    src_ids, src_len, dec_in, _ = build_batch(
        model.vocab, [FakeRecord(src, tgt, "anu_Latn", tgt_lang)],
        model.config.max_positions)
    return full_decoder_logits_np(model, src_ids, src_len, dec_in)[0]


class TestForward:
    def test_logits_shape(self, small_model):
        logits = _logits(small_model, "abc", "fe", "bnu_Latn")
        # decoder input = [tag, bos] + prefix
        assert logits.shape == (2 + len("fe"), len(small_model.vocab))

    def test_deterministic_without_dropout(self, small_model):
        a = _logits(small_model, "fed", "", "bnu_Latn")
        b = _logits(small_model, "fed", "", "bnu_Latn")
        assert np.array_equal(a, b)

    def test_unknown_language_raises(self, small_model):
        with pytest.raises(ValueError):
            translate_batch(small_model, [("a", "anu_Latn", "zzz_Latn")])

    def test_overlength_raises(self, small_model):
        with pytest.raises(ValueError, match="max_positions"):
            translate_batch(small_model, [("a" * 40, "anu_Latn", "bnu_Latn")])

    def test_target_language_tag_changes_logits(self, small_model):
        a = _logits(small_model, "abc", "", "anu_Latn")
        b = _logits(small_model, "abc", "", "bnu_Latn")
        assert not np.allclose(a, b)


class TestGradients:
    def test_full_micro_step_matches_finite_differences(self):
        n_checked, max_rel = check_model_gradients(seed=5)
        assert n_checked > 500
        assert max_rel < 1e-3


class TestSurgery:
    def test_remove_nothing_is_bit_identical(self, small_model):
        out = remove_layers(small_model, "decoder", set())
        assert checkpoint_bytes(out) == checkpoint_bytes(small_model)

    def test_remove_middle_block_of_twelve(self):
        vocab = build_vocab("ab", ["anu_Latn"])
        cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2,
                          ffn_dim=16, n_encoder_layers=1, n_decoder_layers=12)
        m = init_model(cfg, vocab, Rng(7))
        out = remove_layers(m, "decoder", {4, 5, 6, 7})
        assert out.config.n_decoder_layers == 8
        # survivors are original 0-3 and 8-11, in order
        for new, old in enumerate([0, 1, 2, 3, 8, 9, 10, 11]):
            assert np.array_equal(out.params[f"dec.{new}.self.wq"],
                                  m.params[f"dec.{old}.self.wq"])
        # untouched stacks and embeddings preserved bit-exactly
        assert np.array_equal(out.params["embedding"], m.params["embedding"])
        assert np.array_equal(out.params["enc.0.attn.wq"], m.params["enc.0.attn.wq"])

    def test_sequential_equals_batched_removal(self, small_model):
        # removing original decoder layers {1, 3}: batched vs one at a time
        batched = remove_layers(small_model, "decoder", {1, 3})
        step1 = remove_layers(small_model, "decoder", {1})
        # original index 3 is index 2 after removing 1
        step2 = remove_layers(step1, "decoder", {2})
        assert checkpoint_bytes(batched) == checkpoint_bytes(step2)

    def test_original_untouched(self, small_model):
        before = checkpoint_bytes(small_model)
        remove_layers(small_model, "decoder", {0, 1})
        assert checkpoint_bytes(small_model) == before

    def test_cannot_remove_all(self, small_model):
        with pytest.raises(ValueError):
            remove_layers(small_model, "encoder", {0, 1, 2})

    def test_bad_index_rejected(self, small_model):
        with pytest.raises(ValueError):
            remove_layers(small_model, "decoder", {99})


class TestQuantize:
    def test_exactly_representable_weight_survives(self, small_model):
        m = small_model.clone()
        m.params["embedding"][0, 0] = 1.0
        q = quantize_fp16(m)
        assert q.params["embedding"][0, 0] == np.float16(1.0)
        assert float(q.params["embedding"][0, 0]) == 1.0

    def test_rounding_matches_numpy_half(self, small_model):
        m = small_model.clone()
        m.params["embedding"][0, 1] = 0.1
        q = quantize_fp16(m)
        assert q.params["embedding"][0, 1] == np.float16(0.1)
        rel = abs(float(np.float16(0.1)) - 0.1) / 0.1
        assert rel <= 2**-12 + 1e-12  # equality holds up to float64 repr of 0.1

    def test_payload_halves(self, small_model):
        q = quantize_fp16(small_model)
        def payload(m):
            return sum(a.nbytes for a in m.params.values())

        assert payload(q) * 2 == payload(small_model)

    def test_quantizing_twice_rejected(self, small_model):
        q = quantize_fp16(small_model)
        with pytest.raises(ValueError):
            quantize_fp16(q)

    def test_overflow_names_offending_tensor(self, small_model):
        m = small_model.clone()
        m.params["enc.0.ffn.w1"][0, 0] = 1e6
        with pytest.raises(ValueError, match="enc.0.ffn.w1"):
            quantize_fp16(m)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_names_offending_tensor(self, small_model, value):
        m = small_model.clone()
        m.params["dec.0.cross.wv"][1, 2] = value
        with pytest.raises(ValueError, match=r"not finite.*dec\.0\.cross\.wv"):
            quantize_fp16(m)

    def test_roundtrip_error_within_half_ulp(self, small_model):
        q = quantize_fp16(small_model)
        for name in ("embedding", "dec.0.self.wq"):
            orig = small_model.params[name].astype(np.float64)
            back = q.params[name].astype(np.float64)
            # half precision has 11 significand bits: rel err <= 2^-11
            denom = np.maximum(np.abs(orig), 1e-12)
            assert np.max(np.abs(back - orig) / denom) <= 2**-11
