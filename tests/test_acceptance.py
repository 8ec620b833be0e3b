"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with -s or -rA to see them inline).

Expensive artifacts (the three seeded 12/12 toy runs, the pivot and copy
models) come from session fixtures in conftest.py and are shared with the
integration tests.
"""

import json
import os
import random
import statistics
import time

from minimt.bench import DecodeConfig, decode_corpus
from minimt.checkpoint import parameter_payload_bytes, save_checkpoint
from minimt.compress import (
    DistillConfig,
    PruneConfig,
    _dev_sets,
    audit_prune_report,
    distill,
    mean_dev_chrf,
    removal_prefix_consistent,
    run_compression_pipeline,
)
from minimt.corpus import SplitSpec
from minimt.decode import translate_records
from minimt.filtering import (
    FilterConfig,
    ScorerSet,
    langid_scorers,
    run_pipeline,
)
from minimt.langid import train_langid
from minimt.metrics import bleu, chrf_pp, evaluate_direction
from minimt.model import ModelConfig, init_model, quantize_fp16
from minimt.reports import EvalReport
from minimt.rng import Rng
from minimt.synthetic import (
    NOISE_CLASSES,
    NoiseRates,
    generate_synthetic_corpus,
    langid_seed_corpus,
)
from minimt.training import TrainConfig, train
from minimt.vocab import build_vocab

from .conftest import DECODE_MAX_LEN, TOY_SEEDS, toy_prune_config
from .gradcheck import check_model_gradients
from .oracles.bleu_reference import reference_bleu
from .oracles.chrf_reference import reference_chrf_pp


def ok(criterion: int, detail: str):
    from .conftest import ACCEPTANCE_LINES

    line = f"ACCEPTANCE {criterion} PASS: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(f"\n{line}", flush=True)


def test_criterion_01_metric_oracles():
    start = time.monotonic()
    rng = random.Random(424242)
    alphabet = "abcdefgh "
    max_delta = 0.0
    for i in range(50):
        hyp = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20))).strip() or "a"
        ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20))).strip() or "b"
        d_chrf = abs(chrf_pp([hyp], [ref]).value - reference_chrf_pp([hyp], [ref]))
        d_bleu = abs(bleu([hyp], [ref]).value - reference_bleu([hyp], [ref]))
        max_delta = max(max_delta, d_chrf, d_bleu)
        assert d_chrf < 1e-9
        assert d_bleu < 1e-9

    corpus = ["the cat sat on the mat", "a dog barked loudly in the night"]
    assert chrf_pp(corpus, list(corpus)).value == 100.0
    assert bleu(corpus, list(corpus)).value == 100.0
    for text in ("a", "hello world", "x y z"):
        assert chrf_pp([text], [text]).value == 100.0

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(1, f"50 random pairs per metric, max |delta| vs oracle "
          f"{max_delta:.2e} < 1e-9; identity scores exactly 100; {elapsed:.1f}s")


def test_criterion_02_gradient_correctness():
    start = time.monotonic()
    configs = [
        dict(d_model=8, n_heads=2, ffn_dim=16, n_enc=1, n_dec=1),
        dict(d_model=12, n_heads=2, ffn_dim=24, n_enc=1, n_dec=1),
        dict(d_model=16, n_heads=4, ffn_dim=32, n_enc=1, n_dec=1),
        dict(d_model=8, n_heads=2, ffn_dim=12, n_enc=2, n_dec=1),
        dict(d_model=12, n_heads=4, ffn_dim=20, n_enc=1, n_dec=2),
    ]
    total = 0
    worst = 0.0
    for i, dims in enumerate(configs):
        n_checked, max_rel = check_model_gradients(seed=100 + i, rel_tol=1e-3, **dims)
        total += n_checked
        worst = max(worst, max_rel)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    ok(2, f"5 micro-configs, {total} parameter gradients vs central "
          f"differences, worst rel err {worst:.2e} < 1e-3; {elapsed:.0f}s")


def test_criterion_03_toy_end_to_end_quality(toy_run):
    assert toy_run.stage1.config.n_encoder_layers == 12
    assert toy_run.stage1.config.n_decoder_layers == 12
    assert toy_run.stage1.config.d_model <= 64
    assert toy_run.stage1_chrf >= 90.0
    assert toy_run.train_cpu_seconds < 15 * 60
    assert toy_run.train_wall_seconds < 15 * 60
    ok(3, f"12/12 d={toy_run.stage1.config.d_model} toy model: dev chrF++ "
          f"{toy_run.stage1_chrf:.2f} >= 90 in {toy_run.train_cpu_seconds:.0f} "
          f"CPU-seconds (wall {toy_run.train_wall_seconds:.0f}s)")


def test_criterion_04_recovery_after_prune_and_finetune(toy_runs):
    ratios = {}
    for seed in TOY_SEEDS:
        run = toy_runs[seed]
        assert run.pruned_iter.config.n_decoder_layers == 8
        ratio = run.stage3_chrf / run.stage1_chrf
        ratios[seed] = ratio
        assert ratio >= 0.95, f"seed {seed}: recovery {ratio:.4f} < 0.95"
    ok(4, "pruned(4 dec)+1-epoch-FT vs stage-1 dev chrF++ ratios: "
          + ", ".join(f"seed{s}={r:.4f}" for s, r in ratios.items()) + " (all >= 0.95)")


def test_criterion_05_iterative_beats_middle_before_finetuning(toy_runs):
    wins = 0
    advantages = []
    for seed in TOY_SEEDS:
        run = toy_runs[seed]
        adv = run.pruned_iter_chrf - run.pruned_mid_chrf
        advantages.append(adv)
        if run.pruned_iter_chrf >= run.pruned_mid_chrf:
            wins += 1
    mean_adv = sum(advantages) / len(advantages)
    assert wins >= 2
    assert mean_adv > 0
    ok(5, f"pre-FT iterative vs middle: wins {wins}/3, mean advantage "
          f"{mean_adv:+.2f} chrF++ "
          + ", ".join(f"{a:+.2f}" for a in advantages))


def test_criterion_06_greedy_audit_and_prefix_consistency(toy_runs):
    n_audited = 0
    for seed in TOY_SEEDS:
        run = toy_runs[seed]
        reports = [run.prune_report]
        if run.prune_report_n6 is not None:
            reports.append(run.prune_report_n6)
        for report in reports:
            assert audit_prune_report(json.loads(report.to_json()))
            n_audited += 1
    run1 = toy_runs[TOY_SEEDS[0]]
    assert run1.prune_report_n6 is not None
    assert removal_prefix_consistent(run1.prune_report, run1.prune_report_n6)
    seq4 = run1.prune_report.removal_sequence()
    seq6 = run1.prune_report_n6.removal_sequence()
    assert seq6[:4] == seq4
    ok(6, f"{n_audited} PruneReports pass chosen==max audit; n=6 removals "
          f"{seq6} extend n=4 removals {seq4}")


def test_criterion_07_pruned_model_is_faster(toy_run, toy_corpus):
    cfg = DecodeConfig(beam_size=3, batch_token_budget=1024,
                       max_output_length=DECODE_MAX_LEN)
    testset = toy_corpus.devtest
    base_runs, pruned_runs = [], []
    turns = [(toy_run.stage1, base_runs), (toy_run.stage3, pruned_runs)]
    for rep in range(3):
        # alternate which model is timed first, so that a neighbour process
        # that takes a CPU in one slot does not always slow the same model
        for model, runs in turns[::-1] if rep % 2 else turns:
            runs.append(decode_corpus(model, testset, cfg,
                                      warmup_batches=1).tokens_per_second)
    base_median = statistics.median(base_runs)
    pruned_median = statistics.median(pruned_runs)
    assert toy_run.stage3.config.n_decoder_layers == 8
    assert toy_run.stage3.config.n_encoder_layers == 12
    assert pruned_median > base_median
    ok(7, f"median tokens/s over 3 reps: 12/8 {pruned_median:.0f} > 12/12 "
          f"{base_median:.0f} ({(pruned_median / base_median - 1) * 100:+.0f}%)")


def test_criterion_08_fp16_contract(toy_run, toy_corpus, tmp_path):
    fp32 = toy_run.stage3
    fp16 = quantize_fp16(fp32)
    p32 = save_checkpoint(fp32, tmp_path / "fp32.ckpt")
    p16 = save_checkpoint(fp16, tmp_path / "fp16.ckpt")
    payload32 = parameter_payload_bytes(p32)
    payload16 = parameter_payload_bytes(p16)
    assert payload16 == -(-payload32 // 2)  # ceil(fp32 payload / 2)

    dev_sets = _dev_sets(toy_prune_config(4), toy_corpus.dev)
    chrf32 = mean_dev_chrf(fp32, dev_sets, 1, DECODE_MAX_LEN)
    chrf16 = mean_dev_chrf(fp16, dev_sets, 1, DECODE_MAX_LEN)
    assert abs(chrf32 - chrf16) <= 1.0
    ok(8, f"fp16 payload {payload16} == ceil({payload32}/2); dev chrF++ "
          f"fp32 {chrf32:.2f} vs fp16 {chrf16:.2f} (|delta| "
          f"{abs(chrf32 - chrf16):.3f} <= 1.0)")


def test_criterion_09_filter_pipeline_ground_truth(toy_spec):
    rates = NoiseRates(**{c: 0.10 for c in NOISE_CLASSES})
    corpus = generate_synthetic_corpus(
        toy_spec, SplitSpec(train_size=400, dev_size=10, devtest_size=10),
        rates, seed=31)
    detector = train_langid(langid_seed_corpus(toy_spec, 80, seed=32))
    cfg = FilterConfig(threshold=0.6,
                       stages_enabled={"semantic": False, "quality_estimation": False})
    scorers = ScorerSet(langid=langid_scorers(detector))

    kept, report = run_pipeline(corpus.train, cfg, scorers)
    rule_flags = {"html", "empty", "short", "long", "misaligned", "duplicate"}
    survivors_with_rule_flags = [r for r in kept if r.flags & rule_flags]
    assert not survivors_with_rule_flags, "stage 1 recall below 100%"

    injected = sum(1 for r in corpus.train if "wrong_lang" in r.flags)
    survived = sum(1 for r in kept if "wrong_lang" in r.flags)
    recall = (injected - survived) / injected
    assert recall >= 0.90

    again, report2 = run_pipeline(kept, cfg, scorers)
    assert again == kept
    assert all(not s.drop_reasons for s in report2.stages)
    ok(9, f"stage 1 removed 100% of rule-detectable noise; language ID "
          f"removed {recall * 100:.1f}% >= 90% of wrong-language injections "
          f"at threshold 0.6; pipeline idempotent")


def test_criterion_10_kd_dedup(toy_run, toy_corpus):
    teacher = toy_run.stage1
    authentic = toy_corpus.train[:300]
    hyps = translate_records(teacher, authentic, beam_size=3,
                             max_len=DECODE_MAX_LEN)
    reproduced = sum(1 for r, h in zip(authentic, hyps) if h == r.tgt)
    rate = reproduced / len(authentic)
    assert rate >= 0.30, f"teacher reproduces only {rate:.0%} of targets"

    kd = distill(teacher, authentic, DistillConfig(beam_size=3, max_len=DECODE_MAX_LEN),
                 authentic, student_vocab=teacher.vocab)
    synth_targets = {r.tgt for r in kd if r.origin.startswith("kd:")}
    authentic_targets = {r.tgt for r in authentic}
    assert not synth_targets & authentic_targets
    ok(10, f"teacher reproduces {rate:.0%} >= 30% of authentic targets; "
           f"post-dedup synthetic∩authentic targets = empty "
           f"({len(synth_targets)} synthetic survive)")


class CounterClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _deterministic_pipeline(toy_spec, out_dir):
    corpus = generate_synthetic_corpus(
        toy_spec, SplitSpec(train_size=150, dev_size=12, devtest_size=8),
        NoiseRates(), seed=71)
    vocab = build_vocab(toy_spec.alphabet(), toy_spec.languages)
    config = ModelConfig(vocab_size=len(vocab), d_model=24, n_heads=4,
                         ffn_dim=48, n_encoder_layers=3, n_decoder_layers=3,
                         max_positions=64)
    baseline = init_model(config, vocab, Rng(5))
    tcfg = TrainConfig(learning_rate=1.5e-3, batch_size=32, grad_accum_steps=1,
                       eval_every_steps=10, early_stop_patience=10,
                       max_epochs=2, label_smoothing=0.0, seed=5)
    pcfg = PruneConfig(n=1, importance_directions=(("anu_Latn", "bnu_Latn"),
                                                   ("bnu_Latn", "anu_Latn")),
                       importance_beam_size=1, max_len=DECODE_MAX_LEN)
    result = run_compression_pipeline(baseline, corpus.train, corpus.dev,
                                      tcfg, pcfg, out_dir)
    # deterministic-clock evaluation of the final model
    report = EvalReport()
    groups = {}
    for r in corpus.devtest:
        groups.setdefault(r.direction, []).append(r)
    clock = CounterClock()
    for direction in sorted(groups):
        report.rows.append(evaluate_direction(
            result.stage3, groups[direction],
            DecodeConfig(beam_size=1, max_output_length=DECODE_MAX_LEN),
            clock=clock))
    eval_path = os.path.join(out_dir, "eval.json")
    with open(eval_path, "w") as f:
        f.write(report.to_json())
    return result, eval_path


def test_criterion_11_full_determinism(toy_spec, tmp_path):
    run_a, eval_a = _deterministic_pipeline(toy_spec, str(tmp_path / "a"))
    run_b, eval_b = _deterministic_pipeline(toy_spec, str(tmp_path / "b"))

    compared = []
    for name in ("stage1-finetuned", "stage2-pruned", "stage3-finetuned",
                 "stage4-fp16"):
        a = open(run_a.paths[name], "rb").read()
        b = open(run_b.paths[name], "rb").read()
        assert a == b, f"checkpoint {name} differs between identical runs"
        compared.append(name)
    ra = open(run_a.paths["prune_report"]).read()
    rb = open(run_b.paths["prune_report"]).read()
    assert ra == rb, "PruneReports differ between identical runs"
    ea = open(eval_a, "rb").read()
    eb = open(eval_b, "rb").read()
    assert ea == eb, "EvalReports differ between identical runs"
    ok(11, f"two identically seeded pipeline runs: {len(compared)} checkpoints, "
           f"PruneReport and EvalReport all byte-identical")
