import json
from dataclasses import replace

import numpy as np
import pytest

import minimt.compress as compress_mod
from minimt.bench import DecodeConfig, DecodeRun, decode_corpus
from minimt.compress import (
    DistillConfig,
    PruneConfig,
    PruneReport,
    audit_prune_report,
    distill,
    iterative_prune,
    layer_importance_eval,
    middle_block,
    middle_prune,
    removal_prefix_consistent,
    run_compression_pipeline,
)
from minimt.corpus import ParallelRecord, SplitSpec
from minimt.decode import translate_records
from minimt.model import ModelConfig, init_model, remove_layers
from minimt.rng import Rng
from minimt.synthetic import NoiseRates, ToyLanguageSpec, generate_synthetic_corpus
from minimt.training import TrainConfig
from minimt.vocab import build_vocab

DIRS = (("anu_Latn", "bnu_Latn"), ("bnu_Latn", "anu_Latn"))


@pytest.fixture(scope="module")
def setup():
    spec = ToyLanguageSpec()
    corpus = generate_synthetic_corpus(
        spec, SplitSpec(train_size=30, dev_size=8, devtest_size=4),
        NoiseRates(), seed=2)
    vocab = build_vocab(spec.alphabet(), spec.languages)
    config = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                         ffn_dim=32, n_encoder_layers=2, n_decoder_layers=4,
                         max_positions=48)
    model = init_model(config, vocab, Rng(3))
    return model, corpus


def cfg(n=2, **kw):
    base = dict(n=n, importance_directions=DIRS, importance_beam_size=1,
                max_len=40)
    base.update(kw)
    return PruneConfig(**base)


class TestConfig:
    def test_requires_directions(self):
        with pytest.raises(ValueError):
            PruneConfig(n=2)

    def test_middle_strategy_needs_no_directions(self):
        assert PruneConfig(n=2, strategy="middle").importance_directions == ()

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            cfg(strategy="random")

    @pytest.mark.parametrize("field,value", [
        ("importance_beam_size", 0), ("importance_beam_size", "2"),
        ("importance_beam_size", 1.0), ("importance_beam_size", True),
        ("max_len", 0), ("max_len", -3), ("max_len", None),
        ("importance_max_samples", 0), ("importance_max_samples", -1),
        ("importance_max_samples", "5"),
    ])
    def test_rejects_bad_decode_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            cfg(**{field: value})

    def test_rejects_a_repeated_direction(self):
        with pytest.raises(ValueError, match=r"importance_directions repeats "
                                             r"\[\('bnu_Latn', 'anu_Latn'\)\]"):
            cfg(importance_directions=DIRS + (list(DIRS[1]),))

    @pytest.mark.parametrize("directions", [
        5, "anu_Latn", ["ab"], [[1, 2]], [("anu_Latn", "bnu_Latn", "cnu_Latn")]])
    def test_rejects_directions_that_are_not_string_pairs(self, directions):
        with pytest.raises(ValueError, match="importance_directions must be a "
                                             "list of"):
            cfg(importance_directions=directions)

    @pytest.mark.parametrize("n", [-1, 1.5, True, "2"])
    def test_layer_count_must_be_an_integer_at_least_zero(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            cfg(n=n)
        assert cfg(n=0).n == 0

    @pytest.mark.parametrize("field,value", [
        ("max_len", 0), ("max_len", "64"), ("max_len", 2.5),
        ("beam_size", 0), ("beam_size", "3"),
    ])
    def test_distill_config_rejects_bad_decode_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            DistillConfig(**{field: value})


class TestMiddleBlock:
    def test_twelve_minus_four_is_4_to_7(self):
        assert middle_block(12, 4) == [4, 5, 6, 7]

    def test_ten_minus_four_is_3_to_6(self):
        assert middle_block(10, 4) == [3, 4, 5, 6]

    def test_zero_is_empty(self):
        assert middle_block(12, 0) == []

    def test_removing_all_rejected(self):
        with pytest.raises(ValueError):
            middle_block(4, 4)


class TestMiddlePrune:
    def test_centered_block_removed(self, setup):
        model, corpus = setup
        pruned, report = middle_prune(model, cfg(n=2))
        assert pruned.config.n_decoder_layers == 2
        # survivors are original 0 and 3
        assert np.array_equal(pruned.params["dec.0.self.wq"],
                              model.params["dec.0.self.wq"])
        assert np.array_equal(pruned.params["dec.1.self.wq"],
                              model.params["dec.3.self.wq"])
        assert report.iterations[0].removed == {"decoder": [1, 2]}
        assert report.final_fingerprint == pruned.fingerprint()

    def test_n_zero_is_identity(self, setup):
        model, _ = setup
        pruned, report = middle_prune(model, cfg(n=0))
        assert pruned.fingerprint() == model.fingerprint()
        assert report.iterations == []

    def test_both_sides(self, setup):
        model, _ = setup
        pruned, report = middle_prune(model, cfg(n=1, sides="encoder+decoder"))
        assert pruned.config.n_encoder_layers == 1
        assert pruned.config.n_decoder_layers == 3
        # centering formula: floor((2-1)/2)=0 for the encoder, floor((4-1)/2)=1
        assert report.iterations[0].removed == {"encoder": [0], "decoder": [1]}


class TestLayerImportance:
    def test_passthrough_layer_scores_exactly_like_unpruned(self, setup):
        from minimt.compress import mean_dev_chrf, _dev_sets

        model, corpus = setup
        rigged = model.clone()
        # zeroed output projections make a pre-norm block a pure pass-through
        for name in ("dec.1.self.wo", "dec.1.cross.wo", "dec.1.ffn.w2"):
            rigged.params[name][:] = 0.0
        dev_sets = _dev_sets(cfg(), corpus.dev)
        base = mean_dev_chrf(rigged, dev_sets, beam_size=1, max_len=40)
        scores = layer_importance_eval(rigged, ["decoder"], dev_sets,
                                       beam_size=1, max_len=40)
        assert scores[("decoder", 1)] == base

    def test_duplicate_evaluation_is_identical(self, setup):
        from minimt.compress import _dev_sets

        model, corpus = setup
        dev_sets = _dev_sets(cfg(), corpus.dev)
        a = layer_importance_eval(model, ["decoder"], dev_sets, 1, 40)
        b = layer_importance_eval(model, ["decoder"], dev_sets, 1, 40)
        assert a == b

    def test_every_candidate_scores_like_its_oracle(self, setup, monkeypatch,
                                                     use_cpus):
        import minimt.compress as compress_mod
        from minimt.compress import mean_dev_chrf, _dev_sets

        model, corpus = setup
        dev_sets = _dev_sets(cfg(), corpus.dev)
        hyps = []
        use_cpus(1)     # a worker's recorded calls stay in it

        removal_translations = compress_mod.removal_translations

        def recording(*args):
            out = removal_translations(*args)
            hyps.extend(out)
            return out

        monkeypatch.setattr(compress_mod, "removal_translations", recording)
        scores = layer_importance_eval(model, ["encoder", "decoder"], dev_sets,
                                       beam_size=1, max_len=40)
        monkeypatch.undo()
        assert len(scores) == 2 + 4
        # the untrained model's scores are near 0, so compare the
        # hypotheses too: one list per candidate and direction, side by
        # side, then direction by direction
        assert any(h for hs in hyps for h in hs)
        oracle_hyps = {}
        for (side, idx), score in scores.items():
            candidate = remove_layers(model, side, {idx})
            assert score == mean_dev_chrf(candidate, dev_sets, beam_size=1,
                                          max_len=40), (side, idx)
            oracle_hyps[side, idx] = [translate_records(candidate, dev_sets[d], 1, 40)
                                      for d in sorted(dev_sets)]
        assert hyps == [oracle_hyps[side, idx][i]
                        for side, n in (("encoder", 2), ("decoder", 4))
                        for i in range(len(dev_sets)) for idx in range(n)]

    @pytest.mark.parametrize("sides, encodes_per_direction", [
        (["decoder"], 1), (["encoder", "decoder"], 1)])
    def test_decoder_candidates_share_one_encode_per_direction(
            self, setup, monkeypatch, use_cpus, sides, encodes_per_direction):
        import minimt.decode as decode_mod
        from minimt.compress import _dev_sets

        model, corpus = setup
        dev_sets = _dev_sets(cfg(), corpus.dev)
        calls = []
        encode_np = decode_mod.encode_np
        use_cpus(1)     # a worker's recorded calls stay in it

        def counting_encode_np(*args):
            calls.append(args)
            return encode_np(*args)

        monkeypatch.setattr(decode_mod, "encode_np", counting_encode_np)
        layer_importance_eval(model, sides, dev_sets, beam_size=1, max_len=40)
        # the encoder side branches from the parent's encoder layers, run
        # once per direction without encode_np
        assert len(calls) == encodes_per_direction * len(dev_sets)

    def test_parallel_scores_equal_serial(self, setup, use_cpus):
        from minimt.compress import _dev_sets

        model, corpus = setup
        dev_sets = _dev_sets(cfg(), corpus.dev)
        scores = []
        for cpus in (1, 2):
            use_cpus(cpus)
            scores.append(layer_importance_eval(model, ["encoder", "decoder"],
                                                dev_sets, beam_size=1, max_len=40))
        assert list(scores[0].items()) == list(scores[1].items())

    @pytest.mark.parametrize("cpus, side", [
        (1, "decoder"), (2, "decoder"), (3, "decoder"),
        (1, "encoder"), (2, "encoder"), (3, "encoder")],
        ids=["1", "2", "3", "1-encoder", "2-encoder", "3-encoder"])
    def test_one_direction_splits_into_a_block_per_cpu(self, setup, monkeypatch,
                                                       use_cpus, cpus, side):
        """With fewer directions than CPUs a direction's candidates go out
        in contiguous blocks, one per CPU and at most one per layer, and
        score as they do in one block."""
        from minimt.compress import _dev_sets

        model, corpus = setup
        dev_sets = _dev_sets(cfg(importance_directions=DIRS[:1]), corpus.dev)
        use_cpus(1)
        want = layer_importance_eval(model, [side], dev_sets, 1, 40)
        use_cpus(cpus)
        items = []
        map_ordered = compress_mod.map_ordered

        def recording_map(fn, mapped):
            items.extend(mapped)
            return map_ordered(fn, mapped)

        monkeypatch.setattr(compress_mod, "map_ordered", recording_map)
        got = layer_importance_eval(model, [side], dev_sets, 1, 40)
        assert [list(layers) for *_, layers in items] == {
            ("decoder", 1): [[0, 1, 2, 3]], ("decoder", 2): [[0, 1], [2, 3]],
            ("decoder", 3): [[0], [1], [2, 3]], ("encoder", 1): [[0, 1]],
            ("encoder", 2): [[0], [1]], ("encoder", 3): [[0], [1]]}[side, cpus]
        assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("side", ["decoder", "encoder"])
    def test_direction_without_records_is_named(self, setup, side):
        from minimt.compress import _dev_sets

        model, corpus = setup
        dev_sets = {**_dev_sets(cfg(), corpus.dev), ("anu_Latn", "cnu_Latn"): []}
        with pytest.raises(ValueError, match=r"no dev records for importance "
                                             r"directions \[\('anu_Latn', 'cnu_Latn'\)\]"):
            layer_importance_eval(model, [side], dev_sets, 1, 40)

    def test_empty_dev_sets_are_named(self, setup):
        model, _ = setup
        with pytest.raises(ValueError, match="no importance directions"):
            layer_importance_eval(model, ["decoder"], {}, 1, 40)

    def test_single_layer_side_rejected(self, setup):
        from minimt.compress import _dev_sets

        model, corpus = setup
        vocab = model.vocab
        small_cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                                ffn_dim=32, n_encoder_layers=1,
                                n_decoder_layers=1, max_positions=48)
        small = init_model(small_cfg, vocab, Rng(0))
        with pytest.raises(ValueError):
            layer_importance_eval(small, ["decoder"],
                                  _dev_sets(cfg(), corpus.dev), 1, 40)


def make_stub_importance(score_script):
    """score_script: list of dicts keyed by (side, current_index)."""
    calls = iter(score_script)

    def stub(model, sides, dev_sets, beam_size, max_len):
        return next(calls)

    return stub


class TestIterativePrune:
    def test_rigged_sequence_is_followed(self, setup):
        model, corpus = setup
        # best removal: current idx 1 (orig 1), then current idx 1 (orig 2)
        stub = make_stub_importance([
            {("decoder", 0): 10.0, ("decoder", 1): 50.0,
             ("decoder", 2): 30.0, ("decoder", 3): 5.0},
            {("decoder", 0): 10.0, ("decoder", 1): 20.0, ("decoder", 2): 5.0},
        ])
        pruned, report = iterative_prune(model, cfg(n=2), corpus.dev,
                                         importance_fn=stub)
        assert report.removal_sequence() == [("decoder", 1), ("decoder", 2)]
        assert pruned.config.n_decoder_layers == 2
        # survivors are originals 0 and 3
        assert np.array_equal(pruned.params["dec.1.self.wq"],
                              model.params["dec.3.self.wq"])

    def test_parallel_report_equals_serial(self, setup, use_cpus):
        model, corpus = setup
        reports = []
        for cpus in (1, 2):
            use_cpus(cpus)
            _, report = iterative_prune(model, cfg(n=1, sides="encoder+decoder"),
                                        corpus.dev)
            reports.append(report.to_json())
        assert reports[0] == reports[1]

    def test_tie_breaks_to_lowest_original_index(self, setup):
        model, corpus = setup
        stub = make_stub_importance([
            {("decoder", 0): 7.0, ("decoder", 1): 9.0,
             ("decoder", 2): 9.0, ("decoder", 3): 1.0},
        ])
        _, report = iterative_prune(model, cfg(n=1), corpus.dev,
                                    importance_fn=stub)
        assert report.removal_sequence() == [("decoder", 1)]
        assert report.iterations[0].tie

    @pytest.mark.parametrize("n, sides", [(4, "decoder"), (5, "decoder"),
                                          (2, "encoder+decoder")])
    def test_n_not_below_layer_count_fails_before_any_pass(self, setup, n, sides):
        model, corpus = setup
        calls = []

        def stub(*args):
            calls.append(args)
            raise AssertionError("importance pass ran")

        with pytest.raises(ValueError, match="cannot remove"):
            iterative_prune(model, cfg(n=n, sides=sides), corpus.dev,
                            importance_fn=stub)
        assert calls == []

    def test_n_zero_returns_unchanged_model_and_empty_report(self, setup):
        model, corpus = setup
        pruned, report = iterative_prune(model, cfg(n=0), corpus.dev)
        assert pruned.fingerprint() == model.fingerprint()
        assert report.iterations == []

    def test_report_audit_and_json_roundtrip(self, setup):
        model, corpus = setup
        stub = make_stub_importance([
            {("decoder", 0): 1.0, ("decoder", 1): 2.0,
             ("decoder", 2): 3.0, ("decoder", 3): 4.0},
            {("decoder", 0): 4.0, ("decoder", 1): 2.0, ("decoder", 2): 3.0},
        ])
        _, report = iterative_prune(model, cfg(n=2), corpus.dev,
                                    importance_fn=stub)
        obj = json.loads(report.to_json())
        assert audit_prune_report(obj)
        back = PruneReport.from_json(report.to_json())
        assert back.removal_sequence() == report.removal_sequence()

    def test_audit_catches_tampered_report(self, setup):
        model, corpus = setup
        stub = make_stub_importance([
            {("decoder", 0): 1.0, ("decoder", 1): 2.0,
             ("decoder", 2): 3.0, ("decoder", 3): 4.0},
        ])
        _, report = iterative_prune(model, cfg(n=1), corpus.dev,
                                    importance_fn=stub)
        obj = json.loads(report.to_json())
        obj["iterations"][0]["chosen"]["chrf"] = 0.0
        with pytest.raises(AssertionError):
            audit_prune_report(obj)

    def test_prefix_consistency_on_real_model(self, setup):
        model, corpus = setup
        small, rep2 = iterative_prune(model, cfg(n=1), corpus.dev)
        _, rep3 = iterative_prune(model, cfg(n=2), corpus.dev)
        assert removal_prefix_consistent(rep2, rep3)


def fake_decode_corpus(translate):
    """A stand-in for compress's decode_corpus whose hypothesis for each
    record is translate(record.src)."""

    def decode(teacher, records, cfg):
        return DecodeRun([translate(r.src) for r in records], 0, 0.0, 0.0, 1)

    return decode


class TestDistill:
    def test_teacher_echo_of_authentic_target_is_dropped(self, setup, monkeypatch):
        model, corpus = setup
        # deterministic fake teacher: translate = reverse the source string
        monkeypatch.setattr(compress_mod, "decode_corpus",
                            fake_decode_corpus(lambda src: src[::-1]))

        sources = corpus.train[:6]
        # first three authentic targets equal the teacher output (echo case)
        authentic = []
        for i, r in enumerate(sources):
            tgt = r.src[::-1] if i < 3 else r.tgt
            authentic.append(ParallelRecord(
                src_lang=r.src_lang, tgt_lang=r.tgt_lang, src=r.src, tgt=tgt,
                origin="authentic"))
        kd = distill(model, authentic, DistillConfig(beam_size=1, max_len=40),
                     authentic)
        synthetic = {r.src: r for r in kd if r.origin.startswith("kd:")}
        # echoed sources produce no synthetic pair; the rest survive
        for i, r in enumerate(sources):
            if i < 3:
                assert r.src not in synthetic
            else:
                assert synthetic[r.src].tgt == r.src[::-1]

    def test_synthetic_and_authentic_targets_disjoint(self, setup):
        model, corpus = setup
        authentic = corpus.train[:10]
        kd = distill(model, authentic, DistillConfig(beam_size=1, max_len=40),
                     authentic)
        synthetic_targets = {r.tgt for r in kd if r.origin.startswith("kd:")}
        authentic_targets = {r.tgt for r in authentic}
        assert not synthetic_targets & authentic_targets

    def test_empty_teacher_output_dropped_by_refilter(self, setup, monkeypatch):
        model, corpus = setup

        class MuteTeacher:
            vocab = model.vocab

            def fingerprint(self):
                return "0" * 16

        monkeypatch.setattr(compress_mod, "decode_corpus",
                            fake_decode_corpus(lambda src: ""))
        kd = distill(MuteTeacher(), corpus.train[:5],
                     DistillConfig(beam_size=1), corpus.train[:5])
        assert all(not r.origin.startswith("kd:") for r in kd)

    def test_teacher_decodes_through_decode_corpus(self, setup, monkeypatch):
        model, corpus = setup
        sources = corpus.train[:12]
        calls = []

        def recording_decode(teacher, records, cfg):
            # a small budget, so that the sources span several batches
            run = decode_corpus(teacher, records, replace(cfg, batch_token_budget=64))
            calls.append((cfg, run))
            return run

        monkeypatch.setattr(compress_mod, "decode_corpus", recording_decode)
        distill(model, sources, DistillConfig(beam_size=2, max_len=30), [])
        [(cfg, run)] = calls
        assert cfg == DecodeConfig(beam_size=2, max_output_length=30)
        assert run.n_batches > 1
        # each hypothesis is the one a single batch of all sources gives
        assert run.hypotheses == translate_records(model, sources, 2, 30)

    def test_vocab_mismatch_rejected(self, setup):
        model, corpus = setup
        other_vocab = build_vocab("xy", ["anu_Latn", "bnu_Latn"])
        with pytest.raises(ValueError, match="vocab"):
            distill(model, corpus.train[:2], DistillConfig(),
                    corpus.train[:2], student_vocab=other_vocab)


def test_pipeline_with_a_teacher_distills_once(setup, tmp_path, monkeypatch):
    import minimt.compress as compress_mod

    student, corpus = setup
    teacher = init_model(replace(student.config, n_encoder_layers=1,
                                 n_decoder_layers=1), student.vocab, Rng(4))
    calls = []

    def counting_distill(*args, **kwargs):
        calls.append(args[0])
        return distill(*args, **kwargs)

    monkeypatch.setattr(compress_mod, "distill", counting_distill)
    tcfg = TrainConfig(learning_rate=1e-3, batch_size=16, grad_accum_steps=1,
                       eval_every_steps=50, max_epochs=1, seed=1)
    result = run_compression_pipeline(
        student, corpus.train, corpus.dev, tcfg, cfg(1, strategy="middle"),
        str(tmp_path), distill_cfg=DistillConfig(beam_size=1, max_len=40),
        teacher=teacher)
    assert calls == [teacher]
    stages = json.loads(open(result.manifest_path).read())["stages"]
    assert [s["stage"] for s in stages] == [
        "stage1-finetuned", "stage2-pruned", "stage3-finetuned", "stage4-fp16"]
    assert stages[0]["parent"] == student.fingerprint()
    for prev, cur in zip(stages, stages[1:]):
        assert cur["parent"] == prev["fingerprint"]
    for s in stages:
        assert (tmp_path / s["path"]).exists()
