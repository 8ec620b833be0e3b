import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

import minimt.model as model_mod
import minimt.parallel as parallel_mod
import minimt.tensor as tensor_mod
import minimt.training as training_mod
from minimt.corpus import SplitSpec
from minimt.decode import forced_token_logprobs, translate_records
from minimt.model import ModelConfig, TranslationModel, init_model, params_as_tensors
from minimt.parallel import WorkerDiedError
from minimt.rng import Rng
from minimt.synthetic import NoiseRates, ToyLanguageSpec, generate_synthetic_corpus
from minimt.training import TrainConfig, TrainingDiverged, corpus_loss, train
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


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    def test_every_step_and_shard_draws_new_masks(self, tiny_setup, use_cpus,
                                                   monkeypatch):
        model, corpus = tiny_setup
        use_cpus(1)     # every dropout call runs in this process
        draws = []
        real = model_mod.dropout

        def recording(x, rate, rng):
            draws.append(Rng(rng.seed).uniform(8).tobytes())   # the mask's first draws
            return real(x, rate, rng)

        monkeypatch.setattr(model_mod, "dropout", recording)
        train(with_dropout(model, 0.1), corpus.train[:16], corpus.dev,
              fast_cfg(max_epochs=2))
        assert len(draws) >= 40    # 4 batches, 10 residual branches each
        assert len(set(draws)) == len(draws)

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


def recorded_batch_rows(monkeypatch) -> list:
    """The row count of every batch training.batch_loss is called on in
    this process, from now on."""
    rows = []
    real = training_mod.batch_loss

    def recording(t, config, vocab, batch, *args):
        rows.append(len(batch[0]))
        return real(t, config, vocab, batch, *args)

    monkeypatch.setattr(training_mod, "batch_loss", recording)
    return rows


class TestShards:
    def test_weights_do_not_depend_on_the_cpu_count(self, tiny_setup, use_cpus):
        model, corpus = tiny_setup
        cfg = fast_cfg(max_epochs=1, grad_accum_steps=2)
        trained = {}
        for cpus in (1, 2):
            use_cpus(cpus)
            trained[cpus], _ = train(with_dropout(model, 0.1), corpus.train,
                                     corpus.dev, cfg)
            assert_no_children()
        for name in model.params:
            assert trained[1].params[name].tobytes() == trained[2].params[name].tobytes()

    @pytest.mark.parametrize("cpus, busy", [(1, False), (2, True)])
    def test_a_pinned_or_nested_run_splits_every_batch_in_two(
            self, tiny_setup, use_cpus, monkeypatch, cpus, busy):
        model, corpus = tiny_setup
        use_cpus(cpus)
        monkeypatch.setattr(parallel_mod, "_busy", busy)
        rows = recorded_batch_rows(monkeypatch)

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        # 120 records: a 119-record batch in shards of 60 and 59, then a
        # one-record batch in one shard, then the dev evaluation's 24
        assert (len(corpus.train), len(corpus.dev)) == (120, 24)
        train(model, corpus.train, corpus.dev, fast_cfg(batch_size=119, max_epochs=1))
        assert rows == [60, 59, 1, 24]


class TestFailures:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_non_finite_loss_raises_training_diverged(self, tiny_setup, use_cpus, cpus):
        model, corpus = tiny_setup
        use_cpus(cpus)
        broken = model.clone()
        broken.params["embedding"][...] = np.inf
        with pytest.raises(TrainingDiverged,
                           match="non-finite loss nan at optimizer step 0, epoch 0"):
            train(broken, corpus.train, corpus.dev, fast_cfg())
        assert_no_children()

    def test_a_shard_worker_that_dies_raises_worker_died(self, tiny_setup, use_cpus,
                                                         monkeypatch):
        # only a worker can die: on one CPU the shards run in this process
        model, corpus = tiny_setup
        use_cpus(2)
        caller = os.getpid()
        real = training_mod.batch_loss

        def dies(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(training_mod, "batch_loss", dies)
        start = time.monotonic()
        with pytest.raises(WorkerDiedError, match="killed by signal 9"):
            train(model, corpus.train, corpus.dev, fast_cfg())
        assert time.monotonic() - start < 60
        assert_no_children()
