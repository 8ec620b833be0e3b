import json
import subprocess
import sys

import pytest

from minimt import __version__
from minimt.checkpoint import load_checkpoint
from minimt.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from minimt.reports import EvalReport, sha256_file


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-data")
    rc = main(["gen-data", "--out-dir", str(d),
               "--set", "train_size=40", "--set", "dev_size=10",
               "--set", "devtest_size=6", "--set", "noise_rates.html=0.1",
               "--set", "noise_rates.duplicate=0.1"])
    assert rc == EXIT_OK
    return d


@pytest.fixture(scope="module")
def tiny_ckpt(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-model") / "tiny.ckpt"
    rc = main([
        "train", "--train-corpus", str(data_dir / "train.jsonl"),
        "--dev-corpus", str(data_dir / "dev.jsonl"), "--out", str(out),
        "--set", "model.d_model=16", "--set", "model.n_heads=2",
        "--set", "model.ffn_dim=32", "--set", "model.n_encoder_layers=2",
        "--set", "model.n_decoder_layers=2", "--set", "model.max_positions=64",
        "--set", "train.learning_rate=0.001", "--set", "train.max_epochs=1",
        "--set", "train.eval_every_steps=50", "--set", "train.batch_size=8",
        "--set", "train.grad_accum_steps=1",
    ])
    assert rc == EXIT_OK
    return out


class TestGenData:
    def test_artifacts_written(self, data_dir):
        for name in ("train.jsonl", "dev.jsonl", "devtest.jsonl",
                     "train_flags.jsonl", "langid_seed.jsonl", "manifest.json"):
            assert (data_dir / name).exists()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["outputs"]


class TestFilter:
    def test_filter_writes_corpus_report_and_manifest(self, data_dir, tmp_path):
        out = tmp_path / "clean.jsonl"
        rc = main([
            "filter", "--in", str(data_dir / "train.jsonl"), "--out", str(out),
            "--langid-seed", str(data_dir / "langid_seed.jsonl"),
            "--set", "filter.stages_enabled.semantic=false",
            "--set", "filter.stages_enabled.quality_estimation=false",
        ])
        assert rc == EXIT_OK
        assert out.exists()
        report = json.loads((tmp_path / "clean.jsonl.filter_report.json").read_text())
        assert report["n_in"] > report["n_out"]
        assert (tmp_path / "clean.jsonl.manifest.json").exists()

    def test_filter_times_each_enabled_stage(self, tiny_ckpt, data_dir, tmp_path):
        out = tmp_path / "scored.jsonl"
        rc = main(["filter", "--in", str(data_dir / "train.jsonl"), "--out", str(out),
                   "--model", str(tiny_ckpt), "--set", "semantic_pivot_lang=anu_Latn",
                   "--set", "filter.threshold=0.3",
                   "--set", "filter.stages_enabled.language_detection=false"])
        assert rc == EXIT_OK
        timings = json.loads((tmp_path / "scored.jsonl.manifest.json").read_text())["timings"]
        stages = ["filter_rule_based_seconds", "filter_semantic_seconds",
                  "filter_quality_estimation_seconds"]
        assert sorted(timings) == sorted([*stages, "wall_seconds"])
        assert 0 < sum(timings[s] for s in stages) <= timings["wall_seconds"]
        report = (tmp_path / "scored.jsonl.filter_report.json").read_text()
        assert "seconds" not in report

    def test_invalid_threshold_is_usage_error_without_outputs(self, data_dir, tmp_path, capsys):
        out = tmp_path / "never.jsonl"
        rc = main([
            "filter", "--in", str(data_dir / "train.jsonl"), "--out", str(out),
            "--langid-seed", str(data_dir / "langid_seed.jsonl"),
            "--set", "filter.threshold=1.5",
        ])
        assert rc == EXIT_USAGE
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"

    def test_non_bool_stage_switch_is_usage_error(self, tiny_ckpt, data_dir,
                                                  tmp_path, capsys):
        # "no" is not JSON, so it arrives as a truthy string; with a model
        # and a pivot given, the semantic stage could otherwise run
        out = tmp_path / "never.jsonl"
        rc = main([
            "filter", "--in", str(data_dir / "train.jsonl"), "--out", str(out),
            "--langid-seed", str(data_dir / "langid_seed.jsonl"),
            "--model", str(tiny_ckpt), "--set", "semantic_pivot_lang=anu_Latn",
            "--set", "filter.stages_enabled.quality_estimation=false",
            "--set", "filter.stages_enabled.semantic=no",
        ])
        assert rc == EXIT_USAGE
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "semantic" in err["message"]

    def test_scoring_model_is_hashed_into_the_run_id(self, tiny_ckpt, data_dir,
                                                     tmp_path):
        other = tmp_path / "fp16.ckpt"
        rc = main(["quantize", "--ckpt", str(tiny_ckpt), "--out", str(other)])
        assert rc == EXIT_OK
        corpus = data_dir / "train.jsonl"
        run_ids = []
        for ckpt in (tiny_ckpt, other):
            out = tmp_path / f"{ckpt.stem}.jsonl"
            rc = main(["filter", "--in", str(corpus), "--out", str(out),
                       "--model", str(ckpt),
                       "--set", "filter.stages_enabled.language_detection=false",
                       "--set", "filter.stages_enabled.semantic=false"])
            assert rc == EXIT_OK
            manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
            assert manifest["inputs"] == {str(corpus): sha256_file(corpus),
                                          str(ckpt): sha256_file(ckpt)}
            run_ids.append(manifest["run_id"])
        assert run_ids[0] != run_ids[1]

    def test_langid_stage_requires_seed(self, data_dir, tmp_path):
        rc = main(["filter", "--in", str(data_dir / "train.jsonl"),
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == EXIT_USAGE


class TestPruneQuantize:
    def test_middle_prune_cli(self, tiny_ckpt, tmp_path):
        out = tmp_path / "pruned.ckpt"
        rc = main(["prune", "--ckpt", str(tiny_ckpt), "--out", str(out),
                   "--set", "prune.strategy=middle", "--set", "prune.n=1"])
        assert rc == EXIT_OK
        m = load_checkpoint(out)
        assert m.config.n_decoder_layers == 1
        assert (tmp_path / "pruned.ckpt.prune_report.json").exists()

    def test_middle_prune_reads_no_dev_file(self, tiny_ckpt, tmp_path):
        out = tmp_path / "pruned.ckpt"
        rc = main(["prune", "--ckpt", str(tiny_ckpt), "--out", str(out),
                   "--set", "prune.strategy=middle", "--set", "prune.n=1"])
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / "pruned.ckpt.manifest.json").read_text())
        assert manifest["inputs"] == {str(tiny_ckpt): sha256_file(tiny_ckpt)}

    @pytest.mark.parametrize("strategy, dev", [("middle", True), ("iterative", False)])
    def test_dev_file_only_with_the_iterative_strategy(self, tiny_ckpt, data_dir, tmp_path,
                                                       capsys, strategy, dev):
        """--dev with middle pruning, which reads no dev file, and iterative
        pruning without it are config errors that write nothing."""
        out = tmp_path / "out"
        argv = ["prune", "--ckpt", str(tiny_ckpt), "--out", str(out / "p.ckpt"),
                "--set", f"prune.strategy={strategy}", "--set", "prune.n=1"]
        if dev:
            argv += ["--dev", str(data_dir / "dev.jsonl")]
        assert main(argv) == EXIT_USAGE
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "--dev" in err["message"]
        assert not out.exists()

    def test_middle_prune_four_of_twelve_decoder_layers(self, tmp_path):
        # untrained 12-decoder-layer checkpoint: middle pruning needs no dev
        # quality, so surgery alone is exercised through the CLI
        from minimt.model import ModelConfig, init_model
        from minimt.checkpoint import save_checkpoint
        from minimt.rng import Rng
        from minimt.synthetic import ToyLanguageSpec
        from minimt.vocab import build_vocab

        spec = ToyLanguageSpec()
        vocab = build_vocab(spec.alphabet(), spec.languages)
        cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                          ffn_dim=32, n_encoder_layers=12, n_decoder_layers=12,
                          max_positions=64)
        ckpt = tmp_path / "twelve.ckpt"
        save_checkpoint(init_model(cfg, vocab, Rng(0)), ckpt)

        out = tmp_path / "eight.ckpt"
        rc = main(["prune", "--ckpt", str(ckpt), "--out", str(out),
                   "--set", "prune.strategy=middle", "--set", "prune.n=4"])
        assert rc == EXIT_OK
        m = load_checkpoint(out)
        assert m.config.n_decoder_layers == 8
        assert m.config.n_encoder_layers == 12
        report = json.loads((tmp_path / "eight.ckpt.prune_report.json").read_text())
        assert report["iterations"][0]["removed"] == {"decoder": [4, 5, 6, 7]}

    def test_iterative_prune_times_each_importance_pass(self, tiny_ckpt, data_dir,
                                                        tmp_path):
        out = tmp_path / "pruned.ckpt"
        rc = main(["prune", "--ckpt", str(tiny_ckpt), "--dev",
                   str(data_dir / "dev.jsonl"), "--out", str(out),
                   "--set", "prune.strategy=iterative", "--set", "prune.n=1",
                   "--set", "prune.sides=encoder+decoder", "--set", "prune.max_len=12"])
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / "pruned.ckpt.manifest.json").read_text())
        timings = manifest["timings"]
        passes = ["importance_pass_0_seconds", "importance_pass_1_seconds"]
        assert sorted(timings) == [*passes, "wall_seconds"]
        assert 0 < sum(timings[p] for p in passes) <= timings["wall_seconds"]
        report = json.loads((tmp_path / "pruned.ckpt.prune_report.json").read_text())
        assert "seconds" not in json.dumps(report)

    def test_unwritable_report_publishes_nothing(self, tiny_ckpt, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        out = tmp_path / "pruned.ckpt"
        rc = main(["prune", "--ckpt", str(tiny_ckpt), "--out", str(out),
                   "--report", str(blocker / "report.json"),
                   "--set", "prune.strategy=middle", "--set", "prune.n=1"])
        assert rc == EXIT_RUNTIME
        assert sorted(p.name for p in tmp_path.iterdir()) == ["not-a-dir"]

    def test_runs_that_differ_in_one_setting_get_different_run_ids(
            self, tiny_ckpt, tmp_path):
        manifests = []
        for n in (0, 1):
            out = tmp_path / f"n{n}.ckpt"
            rc = main(["prune", "--ckpt", str(tiny_ckpt), "--out", str(out),
                       "--set", "prune.strategy=middle", "--set", f"prune.n={n}"])
            assert rc == EXIT_OK
            manifests.append(json.loads((tmp_path / f"n{n}.ckpt.manifest.json")
                                        .read_text()))
        assert [m["config"]["prune"]["n"] for m in manifests] == [0, 1]
        assert manifests[0]["run_id"] != manifests[1]["run_id"]

    @pytest.mark.parametrize("setting", [
        "prune.max_len=0", "prune.importance_beam_size=0",
        "prune.importance_max_samples=-1", 'prune.max_len="64"'])
    def test_bad_decode_setting_is_a_config_error(self, tiny_ckpt, data_dir,
                                                  tmp_path, capsys, setting):
        rc = main(["prune", "--ckpt", str(tiny_ckpt), "--dev",
                   str(data_dir / "dev.jsonl"), "--out", str(tmp_path / "p.ckpt"),
                   "--set", "prune.n=1", "--set", setting])
        assert rc == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and setting.split(".")[1].split("=")[0] in err["message"]

    @pytest.mark.parametrize("setting", ["prune.n=1.5", "prune.n=true"])
    def test_fractional_or_boolean_layer_count_is_a_config_error(
            self, tiny_ckpt, data_dir, tmp_path, capsys, setting):
        rc = main(["prune", "--ckpt", str(tiny_ckpt), "--dev",
                   str(data_dir / "dev.jsonl"), "--out", str(tmp_path / "p.ckpt"),
                   "--set", setting])
        assert rc == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "n must be an integer >= 0" in err["message"]

    def test_quantize_cli(self, tiny_ckpt, tmp_path):
        out = tmp_path / "fp16.ckpt"
        rc = main(["quantize", "--ckpt", str(tiny_ckpt), "--out", str(out)])
        assert rc == EXIT_OK
        assert load_checkpoint(out).precision == "fp16"


class TestEvaluateBenchReport:
    def test_evaluate_and_chart(self, tiny_ckpt, data_dir, tmp_path):
        out = tmp_path / "eval.json"
        rc = main(["evaluate", "--ckpt", str(tiny_ckpt), "--testset",
                   str(data_dir / "devtest.jsonl"), "--out", str(out),
                   "--set", "decode.beam_size=1",
                   "--set", "decode.max_output_length=40"])
        assert rc == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["rows"] and obj["aggregates"]

        chart = tmp_path / "chart.csv"
        rc = main(["report", "--in", str(out), "--chart", "quality-efficiency",
                   "--out", str(chart)])
        assert rc == EXIT_OK
        assert chart.read_text().startswith("model,chrf_pp,")

    def test_bench_median(self, tiny_ckpt, data_dir, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(["bench", "--ckpt", str(tiny_ckpt), "--testset",
                   str(data_dir / "devtest.jsonl"), "--out", str(out),
                   "--set", "repetitions=2", "--set", "decode.beam_size=1",
                   "--set", "decode.max_output_length=30"])
        assert rc == EXIT_OK
        obj = json.loads(out.read_text())
        assert len(obj["repetitions"]) == 2
        assert obj["median_tokens_per_second"] >= 0

    @pytest.mark.parametrize("setting", ["repetitions=0", "warmup_batches=-1"])
    def test_bench_setting_it_cannot_honour_is_a_config_error(
            self, tiny_ckpt, data_dir, tmp_path, capsys, setting):
        rc = main(["bench", "--ckpt", str(tiny_ckpt), "--testset",
                   str(data_dir / "devtest.jsonl"), "--out", str(tmp_path / "b.json"),
                   "--set", "decode.beam_size=1", "--set", setting])
        assert rc == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and setting.split("=")[0] in err["message"]

    def test_report_csv_conversion(self, tiny_ckpt, data_dir, tmp_path):
        src = tmp_path / "eval2.json"
        main(["evaluate", "--ckpt", str(tiny_ckpt), "--testset",
              str(data_dir / "devtest.jsonl"), "--out", str(src),
              "--set", "decode.beam_size=1", "--set", "decode.max_output_length=20"])
        out = tmp_path / "conv.csv"
        rc = main(["report", "--in", str(src), "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_text() == EvalReport.from_json(src.read_text()).to_csv()

    def test_empty_testset_is_a_config_error(self, tiny_ckpt, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["bench", "--ckpt", str(tiny_ckpt), "--testset", str(empty),
                   "--out", str(tmp_path / "b.json")])
        assert rc == EXIT_USAGE
        assert list(tmp_path.iterdir()) == [empty]
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "testset is empty" in err["message"]


def _manifest_run(command, data, ckpt, out):
    """(argv, input files, manifest path, output files) of one small run of
    a manifest-writing subcommand that writes everything under out."""
    decode = ["--set", "decode.beam_size=1", "--set", "decode.max_output_length=12"]
    if command == "gen-data":
        names = ("train.jsonl", "dev.jsonl", "devtest.jsonl", "train_flags.jsonl",
                 "langid_seed.jsonl")
        return (["--out-dir", out, "--set", "train_size=8", "--set", "dev_size=2",
                 "--set", "devtest_size=2", "--set", "noise_rates.html=0.5"],
                [], out / "manifest.json", [out / n for n in names])
    if command == "filter":
        return (["--in", data / "train.jsonl", "--out", out / "f.jsonl",
                 "--langid-seed", data / "langid_seed.jsonl",
                 "--set", "filter.stages_enabled.semantic=false",
                 "--set", "filter.stages_enabled.quality_estimation=false"],
                [data / "train.jsonl", data / "langid_seed.jsonl"],
                out / "f.jsonl.manifest.json",
                [out / "f.jsonl", out / "f.jsonl.filter_report.json"])
    if command == "train":
        return (["--train-corpus", data / "dev.jsonl", "--dev-corpus",
                 data / "devtest.jsonl", "--out", out / "t.ckpt",
                 "--set", "model.d_model=8", "--set", "model.n_heads=2",
                 "--set", "model.ffn_dim=8", "--set", "model.n_encoder_layers=1",
                 "--set", "model.n_decoder_layers=1", "--set", "train.max_epochs=1"],
                [data / "dev.jsonl", data / "devtest.jsonl"],
                out / "t.ckpt.manifest.json",
                [out / "t.ckpt", out / "t.ckpt.train_log.json"])
    if command == "distill":
        return (["--teacher", ckpt, "--corpus", data / "devtest.jsonl",
                 "--out", out / "kd.jsonl", "--set", "distill.beam_size=1",
                 "--set", "distill.max_len=12"],
                [ckpt, data / "devtest.jsonl"], out / "kd.jsonl.manifest.json",
                [out / "kd.jsonl"])
    if command == "prune":
        return (["--ckpt", ckpt, "--out", out / "p.ckpt",
                 "--set", "prune.strategy=middle", "--set", "prune.n=1"],
                [ckpt], out / "p.ckpt.manifest.json",
                [out / "p.ckpt", out / "p.ckpt.prune_report.json"])
    if command == "quantize":
        return (["--ckpt", ckpt, "--out", out / "q.ckpt"],
                [ckpt], out / "q.ckpt.manifest.json", [out / "q.ckpt"])
    if command == "evaluate":
        return (["--ckpt", ckpt, "--testset", data / "devtest.jsonl",
                 "--out", out / "e.json", *decode],
                [ckpt, data / "devtest.jsonl"], out / "e.json.manifest.json",
                [out / "e.json"])
    assert command == "bench"
    return (["--ckpt", ckpt, "--testset", data / "devtest.jsonl",
             "--out", out / "b.json", "--set", "repetitions=1", *decode],
            [ckpt, data / "devtest.jsonl"], out / "b.json.manifest.json",
            [out / "b.json"])


@pytest.mark.parametrize("command", ["gen-data", "filter", "train", "distill",
                                     "prune", "quantize", "evaluate", "bench"])
def test_manifest_records_command_inputs_outputs_and_wall_time(
        command, data_dir, tiny_ckpt, tmp_path):
    out = tmp_path / "out"
    argv, inputs, manifest_path, outputs = _manifest_run(command, data_dir,
                                                         tiny_ckpt, out)
    assert main([command, *map(str, argv)]) == EXIT_OK
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == command
    assert manifest["toolkit_version"] == __version__
    assert manifest["inputs"] == {str(p): sha256_file(p) for p in inputs}
    assert sorted(out.iterdir()) == sorted([*outputs, manifest_path])
    assert manifest["outputs"] == {str(p): sha256_file(p) for p in outputs}
    wall = manifest["timings"]["wall_seconds"]
    assert isinstance(wall, float) and wall >= 0


class TestErrors:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        rc = main(["quantize", "--ckpt", str(tmp_path / "nope.ckpt"),
                   "--out", str(tmp_path / "x.ckpt")])
        assert rc == EXIT_RUNTIME
        err = json.loads(capsys.readouterr().err.strip())
        assert "message" in err

    def test_config_dir_env_resolution(self, data_dir, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "gen.json").write_text(json.dumps(
            {"schema_version": 1, "train_size": 5, "dev_size": 2, "devtest_size": 2}))
        monkeypatch.setenv("MINIMT_CONFIG_DIR", str(cfg_dir))
        out = tmp_path / "gen-out"
        rc = main(["gen-data", "--config", "gen.json", "--out-dir", str(out)])
        assert rc == EXIT_OK
        assert (out / "train.jsonl").exists()

    def test_bad_schema_version(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"schema_version": 99}))
        rc = main(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_USAGE

    def test_unknown_decode_field_is_config_error(self, tiny_ckpt, data_dir,
                                                  tmp_path, capsys):
        rc = main(["bench", "--ckpt", str(tiny_ckpt), "--testset",
                   str(data_dir / "devtest.jsonl"), "--out", str(tmp_path / "b.json"),
                   "--set", "decode.length_penalty=0.6"])
        assert rc == EXIT_USAGE
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
        assert list(tmp_path.iterdir()) == []

    def test_non_numeric_setting_is_config_error(self, tmp_path, capsys):
        rc = main(["gen-data", "--out-dir", str(tmp_path / "o"), "--set", "seed=abc"])
        assert rc == EXIT_USAGE
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["train_size=20.9", "seed=true", "dev_size=false",
                                      "noise_rates.html=true"])
    def test_fractional_or_boolean_count_is_config_error(self, tmp_path, capsys, flag):
        rc = main(["gen-data", "--out-dir", str(tmp_path / "o"), "--set", flag])
        assert rc == EXIT_USAGE
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag", [
        ("train", "model.n_encoder_layers=2.5"),
        ("train", "train.batch_size=2.5"),
        ("train", "train.max_epochs=true"),
        ("train", "train.learning_rate=true"),
        ("train", "train.label_smoothing=7"),
        ("train", 'train.label_smoothing="abc"'),
        ("train", "model.dropout_rate=false"),
        ("bench", "decode.beam_size=2.5"),
        ("bench", "decode.max_output_length=true"),
        ("filter", "filter.threshold=true"),
    ])
    def test_fractional_or_boolean_config_count_is_config_error(
            self, tiny_ckpt, data_dir, tmp_path, capsys, command, flag):
        if command == "train":
            argv = ["train", "--train-corpus", str(data_dir / "train.jsonl"),
                    "--dev-corpus", str(data_dir / "dev.jsonl")]
        elif command == "filter":
            argv = ["filter", "--in", str(data_dir / "train.jsonl")]
        else:
            argv = ["bench", "--ckpt", str(tiny_ckpt),
                    "--testset", str(data_dir / "devtest.jsonl")]
        rc = main([*argv, "--out", str(tmp_path / "out"), "--set", flag])
        assert rc == EXIT_USAGE
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and flag.split(".")[-1].split("=")[0] in err["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, setting, key", [
        ("gen-data", "noise_rates=3", "noise_rates"),
        ("filter", "filter=3", "filter"),
        ("filter", "qe=3", "qe"),
        ("train", "train=3", "train"),
        ("train", "model=[2]", "model"),
        ("distill", "distill=3", "distill"),
        ("prune", "prune=3", "prune"),
        ("prune", "prune.importance_directions=5", "importance_directions"),
        ("prune", 'prune.importance_directions=["ab"]', "importance_directions"),
        ("prune", "prune.importance_directions=[[1, 2]]", "importance_directions"),
        ("prune", 'prune.importance_directions=[["anu_Latn", "bnu_Latn"], '
                  '["anu_Latn", "bnu_Latn"]]', "importance_directions"),
        ("bench", "decode=3", "decode"),
    ])
    def test_config_section_of_the_wrong_shape_is_config_error(
            self, tiny_ckpt, data_dir, tmp_path, capsys, command, setting, key):
        out = tmp_path / "out"
        argv, _, _, _ = _manifest_run(command, data_dir, tiny_ckpt, out)
        if command == "filter":     # every stage on, so qe is read
            argv = ["--in", data_dir / "train.jsonl", "--out", out / "f.jsonl",
                    "--langid-seed", data_dir / "langid_seed.jsonl",
                    "--model", tiny_ckpt, "--set", "semantic_pivot_lang=anu_Latn"]
        rc = main([command, *map(str, argv), "--set", setting])
        assert rc == EXIT_USAGE
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and key in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command, setting", [
        ("gen-data", "train_sise=5"),
        ("filter", "thresold=0.3"),
        ("filter", "qe.midpont=-3"),
        ("train", "sed=3"),
        ("distill", "beam_size=1"),
        ("prune", "n=1"),
        ("evaluate", "beam_size=1"),
        ("bench", "repetitons=1"),
        # module constants, not settings, even at their value
        ("gen-data", "langid_seed_size=80"),
        ("filter", "filter.min_chars=3"),
        ("filter", "filter.max_chars=200"),
        ("filter", "filter.max_length_ratio=2.0"),
    ])
    def test_key_nothing_reads_is_config_error(
            self, tiny_ckpt, data_dir, tmp_path, capsys, command, setting):
        out = tmp_path / "out"
        argv, _, _, _ = _manifest_run(command, data_dir, tiny_ckpt, out)
        rc = main([command, *map(str, argv), "--set", setting])
        assert rc == EXIT_USAGE
        err = json.loads(capsys.readouterr().err.strip())
        key = setting.split("=")[0].split(".")[-1]
        assert err["error"] == "config" and f"'{key}'" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("prune", ["--n", "1"]),
        ("prune", ["--strategy", "middle"]),
        ("prune", ["--side", "decoder"]),
        ("evaluate", ["--csv", "e.csv"]),
    ])
    def test_deleted_flags_are_usage_errors(self, tiny_ckpt, data_dir, tmp_path,
                                            command, flag):
        out = tmp_path / "out"
        argv, _, _, _ = _manifest_run(command, data_dir, tiny_ckpt, out)
        assert main([command, *map(str, argv), *flag]) == EXIT_USAGE
        assert not out.exists()

    def test_report_format_flag_is_a_usage_error(self, tmp_path):
        rc = main(["report", "--in", str(tmp_path / "e.json"), "--format", "csv",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_quantize_rejects_config_flags(self, tiny_ckpt, tmp_path):
        rc = main(["quantize", "--ckpt", str(tiny_ckpt), "--out", str(tmp_path / "q.ckpt"),
                   "--config", str(tmp_path / "missing.json"), "--set", "anything=1"])
        assert rc == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []


def test_module_entry_point(data_dir):
    proc = subprocess.run([sys.executable, "-m", "minimt", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
