"""Half-precision storage and throughput benchmarking.

Quantizes a trained model to fp16 storage (compute stays float32), verifies
the checkpoint payload halves, and compares output tokens/second between a
deeper and a layer-pruned decoder under the same decode settings.
"""

import statistics
import tempfile
import time

from minimt import (
    DecodeConfig,
    ModelConfig,
    NoiseRates,
    Rng,
    SplitSpec,
    ToyLanguageSpec,
    TrainConfig,
    build_vocab,
    generate_synthetic_corpus,
    init_model,
    parameter_payload_bytes,
    quantize_fp16,
    remove_layers,
    save_checkpoint,
    train,
)
from minimt.bench import decode_corpus

spec = ToyLanguageSpec()
corpus = generate_synthetic_corpus(
    spec, SplitSpec(train_size=400, dev_size=20, devtest_size=40),
    NoiseRates(), seed=51)
vocab = build_vocab(spec.alphabet(), spec.languages)
config = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=4, ffn_dim=64,
                     n_encoder_layers=4, n_decoder_layers=6, max_positions=64)

print("Training a 4/6 model...")
t0 = time.monotonic()
model, _ = train(
    init_model(config, vocab, Rng(51)), corpus.train, corpus.dev,
    TrainConfig(learning_rate=2e-3, batch_size=32, grad_accum_steps=1,
                eval_every_steps=50, early_stop_patience=10, max_epochs=10,
                label_smoothing=0.0, seed=51))
print(f"  done in {time.monotonic() - t0:.0f}s")

fp16 = quantize_fp16(model)
with tempfile.TemporaryDirectory() as d:
    p32 = save_checkpoint(model, f"{d}/fp32.ckpt")
    p16 = save_checkpoint(fp16, f"{d}/fp16.ckpt")
    b32, b16 = parameter_payload_bytes(p32), parameter_payload_bytes(p16)
print(f"\nParameter payload: fp32 {b32:,} bytes -> fp16 {b16:,} bytes "
      f"({b16 / b32:.0%})")
print("(fp16 here is a storage format; CPU decoding upcasts to float32, so "
      "no speedup is promised from quantization alone)")

pruned = remove_layers(model, "decoder", {2, 3})
cfg = DecodeConfig(beam_size=3, batch_token_budget=1024, max_output_length=48)
print(f"\nBenchmarking decoder depth on {len(corpus.devtest)} devtest records "
      f"(beam {cfg.beam_size}, {cfg.batch_token_budget}-token batches):")
for label, m in (("6 decoder layers", model), ("4 decoder layers", pruned)):
    runs = [decode_corpus(m, corpus.devtest, cfg, warmup_batches=1)
            for _ in range(3)]
    median = statistics.median(r.tokens_per_second for r in runs)
    print(f"  {label}: median {median:7.0f} output tokens/s "
          f"over {len(runs)} repetitions")
