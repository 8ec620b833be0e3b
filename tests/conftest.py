"""Session-scoped toy artifacts shared by integration and acceptance tests.

Training the 12/12 toy models dominates suite runtime, so each seed's full
run (train -> prune both ways -> 1-epoch fine-tune) is computed once here and
reused everywhere.
"""

import os
import time
from dataclasses import dataclass, replace

import pytest

from minimt.compress import (
    PruneConfig,
    PruneReport,
    _dev_sets,
    iterative_prune,
    mean_dev_chrf,
    middle_prune,
)
from minimt.corpus import SplitSpec
from minimt.model import ModelConfig, TranslationModel, init_model
from minimt.rng import Rng
from minimt.synthetic import (
    NoiseRates,
    SyntheticCorpus,
    ToyLanguageSpec,
    generate_synthetic_corpus,
)
from minimt.training import TrainConfig, train
from minimt.vocab import build_vocab

TOY_SEEDS = (1, 2, 3)
TOY_DIRECTIONS = (("anu_Latn", "bnu_Latn"), ("bnu_Latn", "anu_Latn"))
DECODE_MAX_LEN = 48

# acceptance tests append their PASS lines here; echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

TOY_TRAIN_CFG = dict(learning_rate=1.5e-3, batch_size=32, grad_accum_steps=1,
                     eval_every_steps=50, early_stop_patience=12, max_epochs=8,
                     label_smoothing=0.0)


def toy_model_config(vocab_size: int) -> ModelConfig:
    return ModelConfig(vocab_size=vocab_size, d_model=32, n_heads=4, ffn_dim=64,
                       n_encoder_layers=12, n_decoder_layers=12, max_positions=64)


def toy_prune_config(n: int) -> PruneConfig:
    return PruneConfig(n=n, importance_directions=TOY_DIRECTIONS,
                       importance_beam_size=1, max_len=DECODE_MAX_LEN)


@dataclass
class ToyRun:
    seed: int
    stage1: TranslationModel
    stage1_chrf: float
    pruned_iter: TranslationModel
    pruned_iter_chrf: float
    prune_report: PruneReport
    pruned_mid: TranslationModel
    pruned_mid_chrf: float
    stage3: TranslationModel
    stage3_chrf: float
    train_wall_seconds: float
    train_cpu_seconds: float
    prune_report_n6: PruneReport | None = None


@pytest.fixture
def use_cpus(monkeypatch):
    """use_cpus(n) makes the CPU affinity, which sizes map_ordered's pool,
    n CPUs for the rest of the test."""

    def set_cpus(n: int):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_cpus


@pytest.fixture(scope="session")
def toy_spec():
    return ToyLanguageSpec()


@pytest.fixture(scope="session")
def toy_corpus(toy_spec) -> SyntheticCorpus:
    return generate_synthetic_corpus(
        toy_spec, SplitSpec(train_size=700, dev_size=40, devtest_size=40),
        NoiseRates(), seed=101)


@pytest.fixture(scope="session")
def toy_vocab(toy_spec, toy_corpus):
    return build_vocab(toy_spec.alphabet(), toy_spec.languages)


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children, such as the
    shard workers of a finished train() call."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _run_seed(seed: int, corpus: SyntheticCorpus, vocab,
              with_n6: bool) -> ToyRun:
    config = toy_model_config(len(vocab))
    tcfg = TrainConfig(seed=seed, **TOY_TRAIN_CFG)
    pcfg = toy_prune_config(4)
    dev_sets = _dev_sets(pcfg, corpus.dev)

    wall0, cpu0 = time.monotonic(), cpu_seconds()
    model = init_model(config, vocab, Rng(seed))
    stage1, _ = train(model, corpus.train, corpus.dev, tcfg)
    wall1, cpu1 = time.monotonic(), cpu_seconds()

    stage1_chrf = mean_dev_chrf(stage1, dev_sets, 1, DECODE_MAX_LEN)
    pruned_iter, report = iterative_prune(stage1, pcfg, corpus.dev)
    pruned_iter_chrf = mean_dev_chrf(pruned_iter, dev_sets, 1, DECODE_MAX_LEN)
    pruned_mid, _ = middle_prune(stage1, pcfg)
    pruned_mid_chrf = mean_dev_chrf(pruned_mid, dev_sets, 1, DECODE_MAX_LEN)

    stage3, _ = train(pruned_iter, corpus.train, corpus.dev,
                      replace(tcfg, max_epochs=1))
    stage3_chrf = mean_dev_chrf(stage3, dev_sets, 1, DECODE_MAX_LEN)

    report_n6 = None
    if with_n6:
        _, report_n6 = iterative_prune(stage1, toy_prune_config(6), corpus.dev)

    return ToyRun(
        seed=seed, stage1=stage1, stage1_chrf=stage1_chrf,
        pruned_iter=pruned_iter, pruned_iter_chrf=pruned_iter_chrf,
        prune_report=report, pruned_mid=pruned_mid,
        pruned_mid_chrf=pruned_mid_chrf, stage3=stage3,
        stage3_chrf=stage3_chrf,
        train_wall_seconds=wall1 - wall0,
        train_cpu_seconds=cpu1 - cpu0,
        prune_report_n6=report_n6,
    )


@pytest.fixture(scope="session")
def toy_runs(toy_corpus, toy_vocab) -> dict[int, ToyRun]:
    return {seed: _run_seed(seed, toy_corpus, toy_vocab, with_n6=(seed == TOY_SEEDS[0]))
            for seed in TOY_SEEDS}


@pytest.fixture(scope="session")
def toy_run(toy_runs) -> ToyRun:
    return toy_runs[TOY_SEEDS[0]]


@pytest.fixture(scope="session")
def pivot_model(toy_spec):
    """Small bnu->anu model backing the pivot embedder (anu-side texts use
    the embedder's identity shortcut, so one direction suffices), trained on
    a corpus's bnu->anu records."""
    full = generate_synthetic_corpus(
        toy_spec, SplitSpec(train_size=600, dev_size=30, devtest_size=30),
        NoiseRates(), seed=202)
    corpus = SyntheticCorpus(*([r for r in split if r.src_lang == "bnu_Latn"]
                               for split in (full.train, full.dev, full.devtest)))
    vocab = build_vocab(toy_spec.alphabet(), toy_spec.languages)
    config = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=4,
                         ffn_dim=64, n_encoder_layers=4, n_decoder_layers=4,
                         max_positions=64)
    model = init_model(config, vocab, Rng(8))
    tcfg = TrainConfig(seed=8, learning_rate=2e-3,
                       **{k: v for k, v in TOY_TRAIN_CFG.items()
                          if k not in ("learning_rate", "max_epochs")},
                       max_epochs=30)
    best, _ = train(model, corpus.train, corpus.dev, tcfg)
    return best, corpus


@pytest.fixture(scope="session")
def copy_model(toy_spec):
    """Tiny model trained on the identity direction only (anu -> anu): a
    corpus's anu sources, each paired with itself."""
    full = generate_synthetic_corpus(
        toy_spec, SplitSpec(train_size=700, dev_size=30, devtest_size=30),
        NoiseRates(), seed=203)
    corpus = SyntheticCorpus(*([replace(r, tgt_lang=r.src_lang, tgt=r.src)
                                for r in split if r.src_lang == "anu_Latn"]
                               for split in (full.train, full.dev, full.devtest)))
    vocab = build_vocab(toy_spec.alphabet(), toy_spec.languages)
    config = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=4,
                         ffn_dim=64, n_encoder_layers=2, n_decoder_layers=2,
                         max_positions=64)
    model = init_model(config, vocab, Rng(7))
    tcfg = TrainConfig(seed=7, learning_rate=2e-3,
                       **{k: v for k, v in TOY_TRAIN_CFG.items()
                          if k not in ("learning_rate", "max_epochs")},
                       max_epochs=50)
    best, _ = train(model, corpus.train, corpus.dev, tcfg)
    return best, corpus
