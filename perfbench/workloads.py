"""The four workloads: train, translate, prune, filter.

Each is an offline batch job driven through minimt's public API by one
caller in a closed loop: an operation starts when the previous one ends,
with no arrival schedule, because the toolkit serves no requests. Every
operation of a run repeats the same work on the same inputs, so outputs
must repeat exactly and timings are reported as medians over operations.

Inputs come from the --seed; decode, prune and filter use the frozen
reference model, so a change to training numerics cannot change their
inputs. Toolkit functions are always looked up on their module at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import frozen
import minimt
import tracing
from minimt import (
    bench,
    checkpoint,
    compress,
    filtering,
    langid,
    metrics,
    model as model_mod,
    synthetic,
    training,
)
from minimt.vocab import tokenize

CLOCK = time.perf_counter
DIRECTIONS = (("anu_Latn", "bnu_Latn"), ("bnu_Latn", "anu_Latn"))
MAX_LEN = 48
BATCH_TOKENS = 1024
PIVOT = "anu_Latn"
FILTER_THRESHOLD = 0.6
SETUP_REPS = 3


@dataclass(frozen=True)
class Sizes:
    train_pairs: int = 160        # per direction: 320 records, 10 steps of 32
    train_dev_pairs: int = 40
    translate_pairs: int = 200    # per direction: 400 devtest records
    prune_dev_pairs: int = 40
    prune_n: int = 2
    filter_pairs: int = 300       # per direction; 726 records with noise
    noise_rate: float = 0.03      # each of the seven noise classes
    langid_sentences: int = 80


FULL = Sizes()
TINY = Sizes(train_pairs=32, train_dev_pairs=4, translate_pairs=8,
             prune_dev_pairs=3, prune_n=1, filter_pairs=20, noise_rate=0.05,
             langid_sentences=50)


@dataclass
class Op:
    """One timed operation: items of work done in seconds, the operations
    it counts toward attempted, and its outputs for the checks."""

    items: int
    seconds: float
    attempted: int
    out: dict = field(default_factory=dict)


@dataclass
class Summary:
    quality: float
    failures: list[str]
    named: dict            # stage metric -> (value, unit, better)


def _corpus(sizes_kw: dict, seed: int, noise_rate: float = 0.0):
    spec = synthetic.ToyLanguageSpec()
    rates = synthetic.NoiseRates(**{c: noise_rate for c in synthetic.NOISE_CLASSES})
    split = minimt.SplitSpec(**{"train_size": 0, "dev_size": 0,
                                "devtest_size": 0, **sizes_kw})
    return spec, synthetic.generate_synthetic_corpus(spec, split, rates, seed=seed)


def _median_rate(ops, pick) -> float:
    return statistics.median(items / seconds for items, seconds in map(pick, ops))


class Train:
    """training.train on the acceptance config for one epoch of a clean
    corpus (a fixed number of optimizer steps), then one dev-loss
    evaluation. The dev_loss_fn hook marks where the step loop ends."""

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int):
        s = self.sizes
        spec, corpus = _corpus({"train_size": s.train_pairs,
                                "dev_size": s.train_dev_pairs}, seed)
        vocab = minimt.build_vocab(spec.alphabet(), spec.languages)
        config = model_mod.ModelConfig(vocab_size=len(vocab), **frozen.MODEL_CONFIG)
        self.model = model_mod.init_model(config, vocab, minimt.Rng(frozen.INIT_SEED))
        self.records, self.dev = corpus.train, corpus.dev
        self.cfg = training.TrainConfig(**{**frozen.TRAIN_CONFIG, "max_epochs": 1,
                                           "eval_every_steps": 10**9})
        self.steps = math.ceil(len(self.records) / self.cfg.batch_size)
        # non-pad target tokens: characters plus eos
        self.tgt_tokens = sum(len(tokenize(r.tgt, vocab)) + 1 for r in self.records)

    def _train(self, records, dev):
        marks = {}

        def dev_loss(work):
            marks["loop_end"] = CLOCK()
            return training.corpus_loss(model_mod.params_as_tensors(work), work,
                                        dev, self.cfg.label_smoothing)

        start = CLOCK()
        _, log = training.train(self.model, records, dev, self.cfg,
                                dev_loss_fn=dev_loss)
        return log, marks["loop_end"] - start

    def warmup(self):
        self._train(self.records[:2 * self.cfg.batch_size], self.dev[:8])

    def op(self) -> Op:
        log, seconds = self._train(self.records, self.dev)
        return Op(self.tgt_tokens, seconds, log.optimizer_steps,
                  {"dev_loss": log.best_dev_loss, "steps": log.optimizer_steps})

    def summarize(self, ops) -> Summary:
        losses = [op.out["dev_loss"] for op in ops]
        failures = checks.losses_finite(losses) + checks.repeats_exactly(losses, "dev loss")
        failures += [f"{op.out['steps']} optimizer steps, expected {self.steps}"
                     for op in ops if op.out["steps"] != self.steps]
        return Summary(math.exp(-losses[0]), failures, {
            "train.tgt_tok_per_s": (_median_rate(ops, lambda o: (o.items, o.seconds)),
                                    "tok/s", "higher"),
            "train.dev_loss": (losses[0], "nats", "lower"),
        })


class Translate:
    """bench.decode_corpus over a two-direction devtest set in 1024-token
    batches: one pass at beam 1, then one at beam 3."""

    beams = (1, 3)

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int):
        _, corpus = _corpus({"devtest_size": self.sizes.translate_pairs}, seed)
        self.records = corpus.devtest
        self.refs = [r.tgt for r in self.records]
        self.model = frozen.load(minimt)

    def _cfg(self, beam):
        return bench.DecodeConfig(beam_size=beam, batch_token_budget=BATCH_TOKENS,
                                  max_output_length=MAX_LEN)

    def warmup(self):
        for beam in self.beams:
            bench.decode_corpus(self.model, self.records[:40], self._cfg(beam))

    def op(self) -> Op:
        out = {}
        for beam in self.beams:
            run = bench.decode_corpus(self.model, self.records, self._cfg(beam))
            chrf = metrics.chrf_pp(run.hypotheses, self.refs).value
            out[beam] = (run.hypotheses, run.output_tokens, run.timed_seconds,
                         chrf, run.n_batches)
        return Op(sum(o[1] for o in out.values()), sum(o[2] for o in out.values()),
                  sum(o[4] for o in out.values()), out)

    def summarize(self, ops) -> Summary:
        failures = []
        for beam in self.beams:
            failures += checks.repeats_exactly([op.out[beam][0] for op in ops],
                                               f"beam-{beam} hypotheses")
        failures += checks.greedy_matches_forced(
            self.model, self.records, ops[0].out[1][0], MAX_LEN, BATCH_TOKENS)
        named = {}
        for beam in self.beams:
            named[f"decode.beam{beam}.tok_per_s"] = (
                _median_rate(ops, lambda o: o.out[beam][1:3]), "tok/s", "higher")
        for beam in self.beams:
            named[f"decode.beam{beam}.chrf"] = (ops[0].out[beam][3], "chrF++", "higher")
        quality = statistics.fmean(ops[0].out[b][3] for b in self.beams) / 100
        return Summary(quality, failures, named)


class Prune:
    """compress.iterative_prune of decoder layers at beam 1 on a dev set,
    then quantize_fp16 and a checkpoint save -> load -> save round trip."""

    def __init__(self, sizes: Sizes, scratch: Path):
        self.sizes = sizes
        self.scratch = scratch

    def setup(self, seed: int):
        s = self.sizes
        _, corpus = _corpus({"dev_size": s.prune_dev_pairs}, seed)
        self.dev = corpus.dev
        self.dev_sets = {d: [r for r in self.dev if (r.src_lang, r.tgt_lang) == d]
                         for d in DIRECTIONS}
        self.cfg = compress.PruneConfig(
            n=s.prune_n, importance_directions=DIRECTIONS, importance_beam_size=1,
            importance_max_samples=s.prune_dev_pairs, max_len=MAX_LEN)
        self.model = frozen.load(minimt)
        self.scratch.mkdir(parents=True, exist_ok=True)

    def warmup(self):
        self.base_chrf = compress.mean_dev_chrf(self.model, self.dev_sets, 1, MAX_LEN)

    def op(self) -> Op:
        first, second = self.scratch / "fp16-a.ckpt", self.scratch / "fp16-b.ckpt"
        start = CLOCK()
        pruned, report = compress.iterative_prune(self.model, self.cfg, self.dev)
        prune_s = CLOCK() - start
        fp16 = model_mod.quantize_fp16(pruned)
        checkpoint.save_checkpoint(fp16, first)
        checkpoint.save_checkpoint(checkpoint.load_checkpoint(first), second)
        seconds = CLOCK() - start
        # only the latest operation's models and bytes are kept, so peak
        # memory does not grow with the number of operations
        self.last = (pruned, first.read_bytes(), second.read_bytes())
        candidates = sum(len(it.candidates) for it in report.iterations)
        return Op(candidates, seconds, candidates, {
            "report": report.to_json(), "prune_s": prune_s,
            "fp16_sha256": hashlib.sha256(self.last[1]).hexdigest()})

    def summarize(self, ops) -> Summary:
        pruned, first, second = self.last
        report = compress.PruneReport.from_json(ops[-1].out["report"])
        chrf = compress.mean_dev_chrf(pruned, self.dev_sets, 1, MAX_LEN)
        failures = checks.prune_consistent(self.model, pruned, report, chrf)
        failures += checks.bytes_identical(first, second, "fp16 checkpoint save->load->save")
        failures += checks.repeats_exactly(
            [(op.out["report"], op.out["fp16_sha256"]) for op in ops],
            "prune report or fp16 checkpoint")
        return Summary(chrf / 100, failures, {
            "prune.wall_s": (statistics.median(op.out["prune_s"] for op in ops),
                             "s", "lower"),
            "prune.chrf": (chrf, "chrF++", "higher"),
            "prune.base_chrf": (self.base_chrf, "chrF++", "higher"),
        })


class Filter:
    """filtering.run_pipeline, all four stages, over a noisy corpus with
    every noise class injected at one rate. Language ID is trained at
    set-up; the semantic and quality stages use the frozen model."""

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int):
        s = self.sizes
        spec, corpus = _corpus({"train_size": s.filter_pairs}, seed, s.noise_rate)
        self.records = corpus.train
        detector = langid.train_langid(
            synthetic.langid_seed_corpus(spec, s.langid_sentences, seed=seed))
        model = frozen.load(minimt)
        self.scorers = filtering.ScorerSet(
            langid=filtering.langid_scorers(detector),
            embedder=filtering.PivotTranslationEmbedder(model, PIVOT, max_len=MAX_LEN),
            qe=filtering.ForcedLogProbQualityScorer(model))
        self.cfg = filtering.FilterConfig(threshold=FILTER_THRESHOLD)

    def warmup(self):
        filtering.run_pipeline(self.records[:60], self.cfg, self.scorers)

    def op(self) -> Op:
        start = CLOCK()
        kept, report = filtering.run_pipeline(self.records, self.cfg, self.scorers)
        return Op(len(self.records), CLOCK() - start, 1,
                  {"kept": kept, "report": report})

    def summarize(self, ops) -> Summary:
        kept, report = ops[0].out["kept"], ops[0].out["report"]
        failures = checks.filter_output_valid(self.records, kept, report)
        failures += checks.repeats_exactly([op.out["kept"] for op in ops], "filter output")
        positions = checks.kept_positions(self.records, kept) or []
        f1 = checks.noise_f1(self.records, positions)
        named = {
            "filter.records_per_s": (_median_rate(ops, lambda o: (o.items, o.seconds)),
                                     "rec/s", "higher"),
            "filter.noise_f1": (f1, "ratio", "higher"),
        }
        for stage in report.stages:
            named[f"filter.{stage.stage}.kept"] = (stage.n_kept, "records", "none")
        return Summary(f1, failures, named)


NAMES = ("train", "translate", "prune", "filter")

# name -> (unit, better); every workload reports all four.
E2E = {"setup_s": ("s", "lower"), "peak_rss_mb": ("MB", "lower"),
       "throughput": ("items/s", "higher"), "quality": ("ratio", "higher")}


def make(name: str, sizes: Sizes, scratch: Path):
    if name == "prune":
        return Prune(sizes, scratch)
    return {"train": Train, "translate": Translate, "filter": Filter}[name](sizes)


@dataclass
class Measurement:
    attempted: int
    failures: list[str]
    metrics: dict           # end-to-end, or per-layer when traced
    named: dict             # stage metric -> (value, unit, better)
    op_seconds: list[float]
    setup_seconds: list[float]
    spans: list = field(default_factory=list)


def measure(name: str, seed: int, seconds: float, traced: bool,
            import_s: float, sizes: Sizes,
            scratch: Path) -> Measurement:
    """Set up (several times, for a steady set-up time), warm up, then run
    operations until `seconds` have passed and check their outputs."""
    workload = make(name, sizes, scratch)
    setup_seconds = []
    for _ in range(SETUP_REPS):
        start = CLOCK()
        workload.setup(seed)
        setup_seconds.append(CLOCK() - start)
    workload.warmup()

    # A traced run alternates untraced and traced operations, so the tracing
    # overhead is measured against neighbours in time, not a distant run.
    tracer = tracing.Tracer(CLOCK) if traced else None
    ops, untraced, failures = [], [], []
    start = CLOCK()
    try:
        while not ops or CLOCK() - start < seconds:
            if tracer:
                untraced.append(workload.op())
                tracer.run_id = len(ops)
                tracing.install(tracer)
            try:
                ops.append(workload.op())
            finally:
                if tracer:
                    tracer.uninstall()
    except Exception:  # a crashed operation is a failed one; report it
        failures.append(traceback.format_exc())

    attempted = sum(op.attempted for op in untraced + ops) + bool(failures)
    op_seconds = [op.seconds for op in ops]
    if not ops:
        return Measurement(attempted, failures, {}, {}, op_seconds, setup_seconds)
    summary = workload.summarize(untraced + ops)
    failures += summary.failures
    if tracer:
        metrics_ = tracing.per_layer_metrics(tracer, len(ops))
        metrics_["trace.overhead_ratio"] = (
            statistics.median(op_seconds)
            / statistics.median(op.seconds for op in untraced) - 1)
    else:
        metrics_ = {
            "setup_s": import_s + statistics.median(setup_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "throughput": statistics.median(op.items / op.seconds for op in ops),
            "quality": summary.quality,
        }
    return Measurement(attempted, failures, metrics_, summary.named, op_seconds,
                       setup_seconds, tracer.dump() if tracer else [])
