"""Train the frozen reference model and store it under perfbench/data.

    python3 perfbench/make_frozen_model.py

Takes about 150 s on a 2-core x86 machine. The recipe is fixed in
frozen.py; running this again writes a model with a new hash, and every
decode, prune and filter number measured before is no longer comparable.
"""

import time

import bootstrap

bootstrap.pin_threads()
minimt = bootstrap.import_minimt()

import frozen  # noqa: E402  (numpy must load after pin_threads)


def main():
    spec = minimt.ToyLanguageSpec()
    corpus = minimt.generate_synthetic_corpus(
        spec, minimt.SplitSpec(**frozen.CORPUS_SIZES), minimt.NoiseRates(),
        seed=frozen.CORPUS_SEED)
    vocab = minimt.build_vocab(spec.alphabet(), spec.languages)
    config = minimt.ModelConfig(vocab_size=len(vocab), **frozen.MODEL_CONFIG)
    model = minimt.init_model(config, vocab, minimt.Rng(frozen.INIT_SEED))
    start = time.monotonic()
    best, log = minimt.train(model, corpus.train, corpus.dev,
                             minimt.TrainConfig(**frozen.TRAIN_CONFIG))
    seconds = time.monotonic() - start
    digest = frozen.save(best, {
        "corpus_seed": frozen.CORPUS_SEED,
        "corpus_sizes": frozen.CORPUS_SIZES,
        "init_seed": frozen.INIT_SEED,
        "train_config": frozen.TRAIN_CONFIG,
        "best_dev_loss": log.best_dev_loss,
        "best_step": log.best_step,
        "optimizer_steps": log.optimizer_steps,
        "stop_reason": log.stop_reason,
    })
    print(f"trained in {seconds:.1f} s: best dev loss {log.best_dev_loss:.4f} "
          f"at step {log.best_step}; sha256 {digest}")


if __name__ == "__main__":
    main()
