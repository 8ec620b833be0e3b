"""Training loop: teacher-forced cross-entropy with gradient accumulation,
periodic dev-loss evaluation, and early stopping on evaluation loss.

A "step" is one optimizer update (after grad_accum_steps micro-batches);
eval_every_steps counts those. Early stopping tolerates exactly
early_stop_patience consecutive non-improving evaluations and stops on the
next one; the returned model is the minimum-dev-loss snapshot.

Every micro-batch is split into the same two shards, its first ceil(n/2)
records and the rest, whatever the CPU count: a parallel.Pool that lives
for the whole train() call computes each shard's loss and gradient (in its
workers on two or more CPUs, inline on one), and the caller adds the
gradients in shard order and runs Adam on weights in a shared mapping, so
the trained bytes never depend on the CPU count.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from .corpus import split_key
from .model import TranslationModel, batch_loss, build_batch, check_counts
from .optim import AdamState, adam_step
from .parallel import Pool
from .rng import Rng
from .tensor import Tensor, backward


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-5
    batch_size: int = 8
    grad_accum_steps: int = 4
    eval_every_steps: int = 1000
    early_stop_patience: int = 10
    max_epochs: int = 10
    label_smoothing: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        check_counts(self, "batch_size", "grad_accum_steps", "eval_every_steps",
                     "early_stop_patience", "max_epochs")


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainLogEntry:
    step: int
    epoch: int
    dev_loss: float
    improved: bool


@dataclass
class TrainLog:
    entries: list[TrainLogEntry] = field(default_factory=list)
    stop_reason: str = ""
    best_step: int = 0
    best_dev_loss: float = float("inf")
    optimizer_steps: int = 0


# records per chunk of a dev-loss evaluation
EVAL_BATCH_SIZE = 64


class PackedParams:
    """Contiguous float32 view over a model's parameters: one buffer, one
    gradient buffer, and named Tensor views whose .grad aliases the gradient
    buffer, so the optimizer is a single vectorized update. The buffer lives
    in a shared anonymous mapping: a process forked after it sees every
    update made in place."""

    def __init__(self, model: TranslationModel):
        if model.precision != "fp32":
            raise ValueError("training requires fp32 parameters")
        total = sum(a.size for a in model.params.values())
        self.buffer = np.frombuffer(mmap.mmap(-1, total * 4), dtype=np.float32)
        self.grads = np.zeros(total, dtype=np.float32)
        self.tensors: dict[str, Tensor] = {}
        offset = 0
        for name, arr in model.params.items():
            view = self.buffer[offset: offset + arr.size].reshape(arr.shape)
            view[...] = arr
            t = Tensor(view, requires_grad=True)
            t.grad = self.grads[offset: offset + arr.size].reshape(arr.shape)
            self.tensors[name] = t
            offset += arr.size
        # the model's own arrays now alias the packed buffer
        model.params = {name: t.data for name, t in self.tensors.items()}

    def zero_grads(self):
        self.grads[:] = 0.0

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.tensors.items()}


def corpus_loss(tensors: dict, model: TranslationModel, records,
                label_smoothing: float) -> float:
    """Token-weighted mean cross-entropy over a record list (no dropout),
    computed on the float32 arrays behind the given weights (Tensors or
    arrays), so no autodiff graph is built."""
    w = {k: t.data if isinstance(t, Tensor) else t for k, t in tensors.items()}
    vocab, config = model.vocab, model.config
    total = 0.0
    count = 0
    for start in range(0, len(records), EVAL_BATCH_SIZE):
        chunk = records[start: start + EVAL_BATCH_SIZE]
        batch = build_batch(vocab, chunk, config.max_positions)
        n_tokens = int((batch[3] != vocab.pad).sum())
        loss = batch_loss(w, config, vocab, batch, label_smoothing)
        total += float(loss) * n_tokens
        count += n_tokens
    return total / count


def train(model: TranslationModel, train_records, dev_records,
          cfg: TrainConfig, *, dev_loss_fn=None):
    """Returns (best_model, TrainLog). dev_loss_fn(model) may replace the
    built-in dev-loss evaluation (test hook)."""
    if not train_records:
        raise ValueError("empty training corpus")
    if not dev_records:
        raise ValueError("empty dev corpus")
    overlap = {split_key(r) for r in train_records} & {split_key(r) for r in dev_records}
    if overlap:
        raise ValueError(f"dev overlaps train on {len(overlap)} records")

    work = model.clone()
    packed = PackedParams(work)
    state = AdamState.init(packed.buffer)
    grads = np.zeros_like(packed.grads)     # a step's sum over its shards
    root = Rng(cfg.seed)
    dropout = work.config.dropout_rate > 0

    log = TrainLog()
    best_snapshot = None
    bad_evals = 0
    accum = 0

    def evaluate(epoch: int) -> bool:
        """Returns True when training should stop."""
        nonlocal bad_evals, best_snapshot
        if dev_loss_fn is not None:
            dl = float(dev_loss_fn(work))
        else:
            dl = corpus_loss(packed.tensors, work, dev_records, cfg.label_smoothing)
        improved = dl < log.best_dev_loss
        log.entries.append(TrainLogEntry(log.optimizer_steps, epoch, dl, improved))
        if improved:
            log.best_dev_loss = dl
            log.best_step = log.optimizer_steps
            best_snapshot = packed.snapshot()
            bad_evals = 0
        else:
            bad_evals += 1
        if bad_evals > cfg.early_stop_patience:
            log.stop_reason = "early_stop"
            return True
        return False

    def shard_grads(item):
        """(loss, gradient of loss * scale) of one shard, or (loss, None)
        when the loss is not finite."""
        batch, scale, drop_rng = item
        packed.zero_grads()
        loss = batch_loss(packed.tensors, work.config, work.vocab, batch,
                          cfg.label_smoothing, drop_rng)
        value = float(loss.data)
        if not np.isfinite(value):
            return value, None
        backward(loss * scale)
        return value, packed.grads.copy()

    def shards(epoch: int, start: int, chunk: list) -> list:
        """Pool items of one micro-batch: each shard's batch arrays, its
        share of the batch's non-pad target tokens over grad_accum_steps,
        and its dropout stream."""
        half = (len(chunk) + 1) // 2
        batches = [build_batch(work.vocab, part, work.config.max_positions)
                   for part in (chunk[:half], chunk[half:]) if part]
        counts = [int((b[3] != work.vocab.pad).sum()) for b in batches]
        return [(b, n / sum(counts) / cfg.grad_accum_steps,
                 root.split(f"dropout:{epoch}:{start}:{k}") if dropout else None)
                for k, (b, n) in enumerate(zip(batches, counts))]

    stopped = False
    with Pool(shard_grads, 2) as pool:
        for epoch in range(cfg.max_epochs):
            order = root.split(f"epoch:{epoch}").permutation(len(train_records))
            for start in range(0, len(order), cfg.batch_size):
                chunk = [train_records[int(i)]
                         for i in order[start: start + cfg.batch_size]]
                for value, g in pool.map(shards(epoch, start, chunk)):
                    if g is None:
                        raise TrainingDiverged(
                            f"non-finite loss {value} at optimizer step "
                            f"{log.optimizer_steps}, epoch {epoch}")
                    grads += g
                accum += 1
                if accum < cfg.grad_accum_steps:
                    continue
                accum = 0
                adam_step(packed.buffer, grads, state, cfg.learning_rate)
                grads[:] = 0.0
                log.optimizer_steps += 1
                if log.optimizer_steps % cfg.eval_every_steps == 0:
                    if evaluate(epoch):
                        stopped = True
                        break
            if stopped:
                break
        else:
            log.stop_reason = "max_epochs"

    # make sure the final state is considered when training ran out of epochs
    if not stopped and (not log.entries or log.entries[-1].step != log.optimizer_steps):
        evaluate(cfg.max_epochs - 1)

    if best_snapshot is None:
        best_snapshot = packed.snapshot()
    best = TranslationModel(work.config, work.vocab, best_snapshot,
                            work.precision, dict(model.metadata))
    return best, log
