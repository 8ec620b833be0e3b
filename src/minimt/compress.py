"""Compression methodology: layer importance evaluation, iterative greedy
pruning with a middle-block baseline, sequence-level distillation, and the
staged fine-tune / prune / fine-tune / quantize pipeline.

Greedy pruning removes one layer per iteration: every remaining candidate
layer is scored by the dev chrF++ of the model without it, averaged over
the importance directions (no retraining inside the loop), and the argmax
is removed. decode.removal_translations decodes all of a side's candidates
for one direction in one stepper. Ties break to the first candidate in
canonical order (encoder before decoder, then lowest original index). With
sides="encoder+decoder" the removal budget n applies per side.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import asdict, dataclass, field, replace
from functools import cache

from .bench import DecodeConfig, decode_corpus
from .checkpoint import save_checkpoint
from .corpus import ParallelRecord
from .decode import removal_translations, translate_records
from .filtering import FilterConfig, ScorerSet, run_pipeline
from .metrics import chrf_from_statistics, chrf_pp, chrf_statistics
from .model import (DECODER, ENCODER, TranslationModel, check_counts, quantize_fp16,
                    remove_layers)
from .parallel import map_ordered
from .reports import publish
from .training import TrainConfig, train

SIDES_DECODER = "decoder"
SIDES_BOTH = "encoder+decoder"
STRATEGY_ITERATIVE = "iterative"
STRATEGY_MIDDLE = "middle"


@dataclass(frozen=True)
class PruneConfig:
    n: int
    sides: str = SIDES_DECODER
    strategy: str = STRATEGY_ITERATIVE
    importance_directions: tuple = ()
    importance_beam_size: int = 1
    importance_max_samples: int | None = None
    max_len: int = 64

    def __post_init__(self):
        check_counts(self, "n", minimum=0)
        if self.sides not in (SIDES_DECODER, SIDES_BOTH):
            raise ValueError(f"sides must be {SIDES_DECODER!r} or {SIDES_BOTH!r}")
        if self.strategy not in (STRATEGY_ITERATIVE, STRATEGY_MIDDLE):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        directions = self.importance_directions
        if not isinstance(directions, (list, tuple)) or not all(
                isinstance(d, (list, tuple)) and len(d) == 2
                and all(isinstance(lang, str) for lang in d) for d in directions):
            raise ValueError("importance_directions must be a list of [src, tgt] "
                             f"string pairs, got {directions!r}")
        if not directions and self.strategy == STRATEGY_ITERATIVE:
            raise ValueError("importance_directions must be nonempty for the "
                             "iterative strategy")
        directions = [tuple(d) for d in directions]
        repeated = sorted({d for d in directions if directions.count(d) > 1})
        if repeated:
            raise ValueError(f"importance_directions repeats {repeated}")
        check_counts(self, "importance_beam_size", "max_len")
        if self.importance_max_samples is not None:
            check_counts(self, "importance_max_samples")

    @property
    def side_list(self) -> list[str]:
        return [ENCODER, DECODER] if self.sides == SIDES_BOTH else [DECODER]


@dataclass
class PruneIteration:
    index: int
    remaining_before: dict                 # side -> original layer ids
    candidates: list                       # [{side, layer_id, chrf}]
    chosen: dict | None                    # {side, layer_id, chrf} (iterative)
    removed: dict                          # side -> original ids removed now
    tie: bool
    model_fingerprint: str


@dataclass
class PruneReport:
    strategy: str
    config: dict
    iterations: list[PruneIteration] = field(default_factory=list)
    final_fingerprint: str = ""
    notes: dict = field(default_factory=dict)

    def removal_sequence(self) -> list[tuple[str, int]]:
        out = []
        for it in self.iterations:
            for side in sorted(it.removed):
                out.extend((side, i) for i in it.removed[side])
        return out

    def to_json(self) -> str:
        return json.dumps({
            "strategy": self.strategy,
            "config": self.config,
            "iterations": [asdict(it) for it in self.iterations],
            "final_fingerprint": self.final_fingerprint,
            "notes": self.notes,
        }, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("iteration,side,layer_id,chrf,chosen\n")
        for it in self.iterations:
            chosen = it.chosen or {}
            for c in it.candidates:
                is_chosen = (c["side"] == chosen.get("side")
                             and c["layer_id"] == chosen.get("layer_id"))
                out.write(f"{it.index},{c['side']},{c['layer_id']},"
                          f"{float(c['chrf']):.6g},{int(is_chosen)}\n")
            if not it.candidates:
                for side, ids in sorted(it.removed.items()):
                    for lid in ids:
                        out.write(f"{it.index},{side},{lid},,1\n")
        return out.getvalue()

    @classmethod
    def from_json(cls, text: str) -> "PruneReport":
        obj = json.loads(text)
        return cls(
            strategy=obj["strategy"], config=obj["config"],
            iterations=[PruneIteration(**it) for it in obj["iterations"]],
            final_fingerprint=obj["final_fingerprint"], notes=obj.get("notes", {}),
        )


def _dev_sets(cfg: PruneConfig, dev_records) -> dict[tuple[str, str], list]:
    """Importance dev set per configured direction, optionally capped."""
    sets: dict[tuple[str, str], list] = {tuple(d): [] for d in cfg.importance_directions}
    for r in dev_records:
        key = (r.src_lang, r.tgt_lang)
        if key in sets:
            if cfg.importance_max_samples is None or len(sets[key]) < cfg.importance_max_samples:
                sets[key].append(r)
    _check_records(sets)
    return sets


def _check_records(dev_sets: dict) -> None:
    if not dev_sets:
        raise ValueError("no importance directions: dev_sets is empty")
    empty = [d for d, recs in dev_sets.items() if not recs]
    if empty:
        raise ValueError(f"no dev records for importance directions {empty}")


def _layer_counts(model: TranslationModel) -> dict[str, int]:
    return {ENCODER: model.config.n_encoder_layers,
            DECODER: model.config.n_decoder_layers}


def mean_dev_chrf(model: TranslationModel, dev_sets: dict, beam_size: int = 1,
                  max_len: int = 64) -> float:
    """Unweighted mean corpus chrF++ across directions."""
    scores = []
    for direction in sorted(dev_sets):
        records = dev_sets[direction]
        hyps = translate_records(model, records, beam_size=beam_size, max_len=max_len)
        scores.append(chrf_pp(hyps, [r.tgt for r in records]).value)
    return sum(scores) / len(scores)


def layer_importance_eval(model: TranslationModel, sides, dev_sets: dict,
                          beam_size: int = 1, max_len: int = 64) -> dict:
    """chrF++ of the model with each candidate layer removed (no retraining).
    Keys are (side, current layer index). Every item of map_ordered is a
    side, a direction and a block of that side's layers, which the item's
    process decodes together with decode.removal_translations: a
    direction's candidates make one block, or, with fewer directions than
    CPUs, that many contiguous blocks, so that every CPU has work."""
    counts = _layer_counts(model)
    for side in sides:
        if counts[side] < 2:
            raise ValueError(f"{side} stack too small to evaluate removals")
    _check_records(dev_sets)
    directions = sorted(dev_sets)
    blocks = -(-len(os.sched_getaffinity(0)) // len(directions))
    items = []
    for side in sides:
        n, per_direction = counts[side], min(counts[side], blocks)
        items += [(side, d, range(b * n // per_direction, (b + 1) * n // per_direction))
                  for d in directions for b in range(per_direction)]

    # chrf_statistics once per distinct (hypothesis, reference) pair in a
    # process: candidates often decode a source alike, and the integer sums
    # are exact, so each score is chrf_pp's
    pair_stats = cache(chrf_statistics)

    def score(item):
        side, d, layers = item
        sources = [(r.src, r.src_lang, r.tgt_lang) for r in dev_sets[d]]
        refs = [r.tgt for r in dev_sets[d]]
        values = []
        for hyps in removal_translations(model, side, sources, layers, beam_size, max_len):
            totals = [sum(c) for c in zip(*(pair_stats(*pair) for pair in zip(hyps, refs)))]
            values.append(chrf_from_statistics(totals).value)
        return values

    chrfs = {}
    for (side, _, layers), values in zip(items, map_ordered(score, items)):
        for idx, chrf in zip(layers, values):
            chrfs.setdefault((side, idx), []).append(chrf)
    # the mean over the directions in order, as mean_dev_chrf takes it
    return {key: sum(v) / len(v) for key, v in chrfs.items()}


def iterative_prune(model: TranslationModel, cfg: PruneConfig, dev_records,
                    importance_fn=None) -> tuple[TranslationModel, PruneReport]:
    """Remove cfg.n layers per targeted side, greedily by dev chrF++.
    importance_fn may replace layer_importance_eval, with its signature
    (a test hook; the CLI times each pass through it)."""
    counts = _layer_counts(model)
    for side in cfg.side_list:
        if cfg.n >= counts[side]:
            raise ValueError(f"cannot remove {cfg.n} of {counts[side]} {side} layers")
    dev_sets = _dev_sets(cfg, dev_records)
    if importance_fn is None:
        importance_fn = layer_importance_eval
    report = PruneReport(strategy=STRATEGY_ITERATIVE, config=asdict(cfg),
                         notes={"layer_ids": "0-based original indices"})
    current = model.clone()
    orig_ids = {side: list(range(count)) for side, count in counts.items()}
    removed_count = {side: 0 for side in cfg.side_list}

    total = cfg.n * len(cfg.side_list)
    for iteration in range(total):
        active = [s for s in cfg.side_list if removed_count[s] < cfg.n]
        scores = importance_fn(current, active, dev_sets,
                               cfg.importance_beam_size, cfg.max_len)
        # canonical candidate order: encoder first, then ascending index
        ordered = sorted(scores, key=lambda k: (k[0] != ENCODER, k[1]))
        best_key = max(ordered, key=lambda k: scores[k])
        # tie-break: first candidate in canonical order among the max scores
        top = [k for k in ordered if scores[k] == scores[best_key]]
        chosen_key = top[0]
        side, idx = chosen_key

        candidates = [{"side": s, "layer_id": orig_ids[s][i], "chrf": scores[(s, i)]}
                      for s, i in ordered]
        chosen_orig = orig_ids[side][idx]
        next_model = remove_layers(current, side, {idx})
        report.iterations.append(PruneIteration(
            index=iteration,
            remaining_before={s: list(orig_ids[s]) for s in cfg.side_list},
            candidates=candidates,
            chosen={"side": side, "layer_id": chosen_orig, "chrf": scores[chosen_key]},
            removed={side: [chosen_orig]},
            tie=len(top) > 1,
            model_fingerprint=next_model.fingerprint(),
        ))
        current = next_model
        del orig_ids[side][idx]
        removed_count[side] += 1

    report.final_fingerprint = current.fingerprint()
    audit_prune_report(json.loads(report.to_json()))
    return current, report


def middle_block(n_layers: int, n_remove: int) -> list[int]:
    """Centered contiguous block: floor((L - n) / 2) .. + n - 1."""
    if n_remove >= n_layers:
        raise ValueError(f"cannot remove {n_remove} of {n_layers} layers")
    start = (n_layers - n_remove) // 2
    return list(range(start, start + n_remove))


def middle_prune(model: TranslationModel, cfg: PruneConfig) -> tuple[TranslationModel, PruneReport]:
    """Non-adaptive baseline: remove the centered block on each targeted side."""
    report = PruneReport(strategy=STRATEGY_MIDDLE, config=asdict(cfg),
                         notes={"layer_ids": "0-based original indices"})
    current = model.clone()
    counts = _layer_counts(model)
    if cfg.n > 0:
        removed = {}
        for side in cfg.side_list:
            block = middle_block(counts[side], cfg.n)
            current = remove_layers(current, side, set(block))
            removed[side] = block
        report.iterations.append(PruneIteration(
            index=0,
            remaining_before={s: list(range(counts[s])) for s in cfg.side_list},
            candidates=[], chosen=None, removed=removed, tie=False,
            model_fingerprint=current.fingerprint(),
        ))
    report.final_fingerprint = current.fingerprint()
    return current, report


def audit_prune_report(report_obj: dict) -> bool:
    """Mechanical audit of a report JSON object: in every iteration with
    candidates, the chosen score equals the max and the tie-break picked the
    first canonical candidate among the top scorers."""
    for it in report_obj["iterations"]:
        if not it["candidates"]:
            continue
        best = max(c["chrf"] for c in it["candidates"])
        chosen = it["chosen"]
        if chosen["chrf"] != best:
            raise AssertionError(
                f"iteration {it['index']}: chosen chrf {chosen['chrf']} != max {best}")
        top_first = next(c for c in it["candidates"] if c["chrf"] == best)
        if (chosen["side"], chosen["layer_id"]) != (top_first["side"], top_first["layer_id"]):
            raise AssertionError(
                f"iteration {it['index']}: tie-break violated "
                f"(chosen {chosen}, expected {top_first})")
    return True


def removal_prefix_consistent(report_small: PruneReport,
                              report_large: PruneReport) -> bool:
    """The larger run's removal sequence must start with the smaller run's."""
    small = report_small.removal_sequence()
    large = report_large.removal_sequence()
    return large[: len(small)] == small


# ---------------------------------------------------------------------------
# Sequence-level knowledge distillation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistillConfig:
    beam_size: int = 3
    max_len: int = 64

    def __post_init__(self):
        check_counts(self, "beam_size", "max_len")


def distill(teacher: TranslationModel, source_records, cfg: DistillConfig,
            authentic_records, filter_cfg: FilterConfig | None = None,
            scorers: ScorerSet | None = None, student_vocab=None):
    """Authentic corpus plus teacher-generated synthetic pairs.

    The teacher decodes the sources with bench.decode_corpus: token-budget
    batches spread over the CPUs, each row's hypothesis independent of its
    batch. Synthetic pairs whose target exactly matches any authentic target
    are dropped; the survivors pass back through the filter pipeline.
    """
    if student_vocab is not None and student_vocab != teacher.vocab:
        raise ValueError("teacher and student vocabularies differ")

    sources = list(source_records)
    hyps = decode_corpus(teacher, sources, DecodeConfig(
        beam_size=cfg.beam_size, max_output_length=cfg.max_len)).hypotheses
    teacher_tag = f"kd:{teacher.fingerprint()[:8]}"
    synthetic = [
        ParallelRecord(src_lang=r.src_lang, tgt_lang=r.tgt_lang, src=r.src,
                       tgt=hyp, origin=teacher_tag)
        for r, hyp in zip(sources, hyps)
    ]

    authentic_targets = {r.tgt for r in authentic_records}
    synthetic = [r for r in synthetic if r.tgt not in authentic_targets]

    if synthetic:
        fc = filter_cfg or FilterConfig(
            stages_enabled={"language_detection": False, "semantic": False,
                            "quality_estimation": False})
        synthetic, _ = run_pipeline(synthetic, fc, scorers or ScorerSet())

    return list(authentic_records) + synthetic


# ---------------------------------------------------------------------------
# Staged pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineResult:
    stage1: TranslationModel
    pruned: TranslationModel
    stage3: TranslationModel
    quantized: TranslationModel
    prune_report: PruneReport
    paths: dict
    manifest_path: str


def run_compression_pipeline(baseline: TranslationModel, train_records,
                             dev_records, train_cfg: TrainConfig,
                             prune_cfg: PruneConfig, out_dir,
                             distill_cfg: DistillConfig | None = None,
                             teacher: TranslationModel | None = None,
                             filter_cfg: FilterConfig | None = None,
                             scorers: ScorerSet | None = None) -> PipelineResult:
    """fine-tune -> prune -> 1-epoch fine-tune -> fp16, with one checkpoint
    and a parent link per stage. Given a teacher and a DistillConfig, both
    fine-tunes train on one distilled corpus (pruning keeps the vocabulary,
    so the teacher decodes the training sources once)."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    manifest_stages = []

    def emit(name: str, model: TranslationModel, parent: str, extra=None):
        model.metadata.update({
            "stage": name,
            "seed": str(train_cfg.seed),
            "parent": parent,
        })
        path = os.path.join(out_dir, f"{name}.ckpt")
        save_checkpoint(model, path)
        paths[name] = path
        manifest_stages.append({
            "stage": name, "path": os.path.basename(path),
            "fingerprint": model.fingerprint(), "parent": parent,
            **(extra or {}),
        })
        return model.fingerprint()

    base_fp = baseline.fingerprint()

    data = train_records
    if teacher is not None and distill_cfg is not None:
        data = distill(teacher, train_records, distill_cfg, train_records,
                       filter_cfg, scorers, student_vocab=baseline.vocab)
    stage1, log1 = train(baseline, data, dev_records, train_cfg)
    fp1 = emit("stage1-finetuned", stage1, base_fp,
               {"train_steps": log1.optimizer_steps, "stop": log1.stop_reason})

    if prune_cfg.strategy == STRATEGY_ITERATIVE:
        pruned, prune_report = iterative_prune(stage1, prune_cfg, dev_records)
    else:
        pruned, prune_report = middle_prune(stage1, prune_cfg)
    report_path = os.path.join(out_dir, "prune_report.json")
    publish({report_path: prune_report.to_json()})
    paths["prune_report"] = report_path
    fp2 = emit("stage2-pruned", pruned, fp1, {"strategy": prune_cfg.strategy})

    cfg3 = replace(train_cfg, max_epochs=1)
    stage3, log3 = train(pruned, data, dev_records, cfg3)
    fp3 = emit("stage3-finetuned", stage3, fp2,
               {"train_steps": log3.optimizer_steps, "epochs": cfg3.max_epochs})

    quantized = quantize_fp16(stage3)
    emit("stage4-fp16", quantized, fp3)

    manifest_path = os.path.join(out_dir, "pipeline_manifest.json")
    publish({manifest_path: json.dumps({"stages": manifest_stages},
                                       indent=2, sort_keys=True)})

    return PipelineResult(stage1=stage1, pruned=pruned, stage3=stage3,
                          quantized=quantized, prune_report=prune_report,
                          paths=paths, manifest_path=manifest_path)
