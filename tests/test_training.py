from dataclasses import replace

import numpy as np
import pytest

import minimt.tensor as tensor_mod
from minimt.corpus import SplitSpec
from minimt.decode import forced_token_logprobs, translate_records
from minimt.model import ModelConfig, TranslationModel, init_model, params_as_tensors
from minimt.rng import Rng
from minimt.synthetic import NoiseRates, ToyLanguageSpec, generate_synthetic_corpus
from minimt.training import TrainConfig, corpus_loss, train
from minimt.vocab import build_vocab


@pytest.fixture(scope="module")
def tiny_setup():
    spec = ToyLanguageSpec()
    corpus = generate_synthetic_corpus(
        spec, SplitSpec(train_size=60, dev_size=12, devtest_size=4),
        NoiseRates(), seed=1)
    vocab = build_vocab(spec.alphabet(), spec.languages)
    config = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                         ffn_dim=32, n_encoder_layers=2, n_decoder_layers=2,
                         max_positions=48)
    model = init_model(config, vocab, Rng(11))
    return model, corpus


def fast_cfg(**kw):
    base = dict(learning_rate=1e-3, batch_size=8, grad_accum_steps=1,
                eval_every_steps=5, early_stop_patience=3, max_epochs=2,
                label_smoothing=0.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def test_lr_zero_leaves_params_bit_identical(self, tiny_setup):
        model, corpus = tiny_setup
        best, log = train(model, corpus.train, corpus.dev,
                          fast_cfg(learning_rate=0.0, max_epochs=1))
        for name in model.params:
            assert np.array_equal(best.params[name], model.params[name])
        assert log.optimizer_steps > 0

    def test_training_reduces_dev_loss(self, tiny_setup):
        model, corpus = tiny_setup
        init_loss = corpus_loss(params_as_tensors(model), model, corpus.dev, 0.0)
        best, log = train(model, corpus.train, corpus.dev, fast_cfg(max_epochs=6))
        assert log.best_dev_loss < init_loss
        assert log.entries

    def test_same_seed_is_bit_reproducible(self, tiny_setup):
        model, corpus = tiny_setup
        a, _ = train(model, corpus.train, corpus.dev, fast_cfg(max_epochs=1))
        b, _ = train(model, corpus.train, corpus.dev, fast_cfg(max_epochs=1))
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_original_model_not_mutated(self, tiny_setup):
        model, corpus = tiny_setup
        before = {k: v.copy() for k, v in model.params.items()}
        train(model, corpus.train, corpus.dev, fast_cfg(max_epochs=1))
        for name, arr in before.items():
            assert np.array_equal(model.params[name], arr)

    def test_dev_overlap_rejected(self, tiny_setup):
        model, corpus = tiny_setup
        with pytest.raises(ValueError, match="overlap"):
            train(model, corpus.train, corpus.train[:5], fast_cfg())

    def test_empty_corpus_rejected(self, tiny_setup):
        model, corpus = tiny_setup
        with pytest.raises(ValueError):
            train(model, [], corpus.dev, fast_cfg())


class TestEarlyStopping:
    def test_patience_semantics_stop_at_eval_12(self, tiny_setup):
        # dev loss strictly worsens from evaluation 2 onward; patience 10
        # tolerates evals 2..11 and stops at evaluation 12, returning eval-1
        model, corpus = tiny_setup
        losses = iter([1.0] + [1.0 + 0.1 * i for i in range(1, 40)])

        best, log = train(
            model, corpus.train, corpus.dev,
            fast_cfg(eval_every_steps=1, early_stop_patience=10, max_epochs=50),
            dev_loss_fn=lambda m: next(losses))
        assert log.stop_reason == "early_stop"
        assert len(log.entries) == 12
        assert log.entries[0].improved
        assert not any(e.improved for e in log.entries[1:])
        assert log.best_dev_loss == 1.0
        assert log.best_step == log.entries[0].step

    def test_returns_minimum_dev_loss_checkpoint(self, tiny_setup):
        model, corpus = tiny_setup
        # best at eval 3, then worsens until patience runs out
        seq = [3.0, 2.0, 1.0, 4.0, 4.1, 4.2, 4.3]
        losses = iter(seq)
        snapshots = []

        def hook(m):
            snapshots.append({k: v.copy() for k, v in m.params.items()})
            return next(losses)

        best, log = train(
            model, corpus.train, corpus.dev,
            fast_cfg(eval_every_steps=1, early_stop_patience=3, max_epochs=50),
            dev_loss_fn=hook)
        assert log.best_dev_loss == 1.0
        want = snapshots[2]  # state at eval 3
        for name in want:
            assert np.array_equal(best.params[name], want[name])

    def test_max_epochs_runs_final_evaluation(self, tiny_setup):
        model, corpus = tiny_setup
        best, log = train(model, corpus.train, corpus.dev,
                          fast_cfg(eval_every_steps=1000, max_epochs=1))
        # eval_every larger than total steps: the end-of-training eval fires
        assert log.stop_reason == "max_epochs"
        assert len(log.entries) == 1


def with_dropout(model, rate: float) -> TranslationModel:
    """The same weights under another dropout rate."""
    return TranslationModel(replace(model.config, dropout_rate=rate), model.vocab,
                            model.params, model.precision)


class TestCorpusLoss:
    def test_evaluates_on_arrays_without_a_graph(self, tiny_setup, monkeypatch):
        model, corpus = tiny_setup
        arrays = dict(model.params)
        tensors = {k: tensor_mod.Tensor(v.copy(), requires_grad=True)
                   for k, v in model.params.items()}
        on_arrays = corpus_loss(arrays, model, corpus.dev, 0.1)

        def no_graph(*args):
            raise AssertionError("corpus_loss recorded a graph node")

        monkeypatch.setattr(tensor_mod, "_result", no_graph)
        assert corpus_loss(tensors, model, corpus.dev, 0.1) == on_arrays
        assert corpus_loss(params_as_tensors(model), model, corpus.dev, 0.1) == on_arrays
        assert all(t.grad is None for t in tensors.values())


class TestDropout:
    def test_training_with_dropout_is_bit_reproducible(self, tiny_setup):
        model, corpus = tiny_setup
        dropped = with_dropout(model, 0.1)
        cfg = fast_cfg(max_epochs=1)
        a, log_a = train(dropped, corpus.train, corpus.dev, cfg)
        b, log_b = train(dropped, corpus.train, corpus.dev, cfg)
        plain, log_plain = train(model, corpus.train, corpus.dev, cfg)
        assert log_a.best_dev_loss == log_b.best_dev_loss
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        assert log_a.best_dev_loss != log_plain.best_dev_loss
        assert any(not np.array_equal(a.params[name], plain.params[name])
                   for name in a.params)

    def test_evaluation_and_decoding_ignore_the_rate(self, tiny_setup):
        model, corpus = tiny_setup
        dropped = with_dropout(model, 0.1)
        records = corpus.dev
        assert (corpus_loss(dropped.params, dropped, records, 0.1)
                == corpus_loss(model.params, model, records, 0.1))
        assert np.array_equal(forced_token_logprobs(dropped, records),
                              forced_token_logprobs(model, records))
        for beam in (1, 3):
            assert (translate_records(dropped, records, beam, 20)
                    == translate_records(model, records, beam, 20))
