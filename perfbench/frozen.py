"""The frozen reference model: storage format and training recipe.

The model is stored in a format this benchmark owns, not minimt's
checkpoint format, so a checkpoint version change cannot break the
benchmark:

    frozen_model.json  config, vocabulary, tensor names and shapes,
                       provenance, and a sha256 over all of the above
                       plus the payload
    frozen_model.f32   every tensor as little-endian float32, in order

load() recomputes the hash and refuses a mismatch. Regenerating the model
(make_frozen_model.py) changes every decode, prune and filter number, so it
starts a new baseline.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent / "data"
HEADER = DATA_DIR / "frozen_model.json"
PAYLOAD = DATA_DIR / "frozen_model.f32"
FORMAT = "perfbench-frozen-model/1"

# The acceptance configuration of the test suite (12/12 layers, d=32),
# trained once with seed 1 on the seed-101 toy corpus.
CORPUS_SEED = 101
CORPUS_SIZES = dict(train_size=700, dev_size=40, devtest_size=40)
INIT_SEED = 1
MODEL_CONFIG = dict(d_model=32, n_heads=4, ffn_dim=64, n_encoder_layers=12,
                    n_decoder_layers=12, max_positions=64)
TRAIN_CONFIG = dict(seed=1, learning_rate=1.5e-3, batch_size=32,
                    grad_accum_steps=1, eval_every_steps=50,
                    early_stop_patience=12, max_epochs=8, label_smoothing=0.0)


class FrozenModelError(Exception):
    pass


def _digest(meta: dict, payload: bytes) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(meta, sort_keys=True, separators=(",", ":")).encode())
    h.update(payload)
    return h.hexdigest()


def save(model, provenance: dict) -> str:
    """Write the model's fp32 tensors and metadata; returns the hash."""
    if model.precision != "fp32":
        raise ValueError("the frozen model is stored in fp32")
    meta = {
        "format": FORMAT,
        "config": {k: getattr(model.config, k) for k in
                   ("vocab_size", *MODEL_CONFIG, "dropout_rate")},
        "vocab": {"tokens": list(model.vocab.tokens),
                  "language_tags": dict(model.vocab.language_tags)},
        "tensors": [{"name": n, "shape": list(a.shape)}
                    for n, a in model.params.items()],
        "provenance": provenance,
    }
    payload = b"".join(a.astype("<f4").tobytes() for a in model.params.values())
    digest = _digest(meta, payload)
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    PAYLOAD.write_bytes(payload)
    HEADER.write_text(json.dumps({**meta, "sha256": digest}, indent=1,
                                 sort_keys=True) + "\n")
    return digest


def load(minimt):
    """The stored model as a minimt TranslationModel, after its hash checks."""
    try:
        header = json.loads(HEADER.read_text())
        payload = PAYLOAD.read_bytes()
    except (OSError, ValueError) as e:
        raise FrozenModelError(f"cannot read the frozen model: {e}") from None
    recorded = header.pop("sha256", None)
    if header.get("format") != FORMAT:
        raise FrozenModelError(f"unknown format {header.get('format')!r}")
    if _digest(header, payload) != recorded:
        raise FrozenModelError("frozen model content does not match its sha256")
    vocab = minimt.Vocab(header["vocab"]["tokens"],
                         header["vocab"]["language_tags"])
    config = minimt.ModelConfig(**header["config"])
    flat = np.frombuffer(payload, dtype="<f4")
    params, offset = {}, 0
    for entry in header["tensors"]:
        size = int(np.prod(entry["shape"], dtype=np.int64))
        params[entry["name"]] = (flat[offset: offset + size]
                                 .reshape(entry["shape"]).astype(np.float32))
        offset += size
    if offset != flat.size:
        raise FrozenModelError("payload size does not match the tensor list")
    return minimt.TranslationModel(config, vocab, params)
