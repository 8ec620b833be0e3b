"""Command-line surface: reproducible runs over JSON configs.

Every subcommand but quantize and report reads an optional JSON config
(fields overridable with repeated --set dotted.path=value flags) and
validates it before touching any output; a key the subcommand does not
read is a config error. Settings have no flags of their own, so the
manifest's config holds all of them. All but report then run through
_run, which times the work and publishes its artifacts plus a RunManifest
all-or-nothing through reports.publish. report publishes one EvalReport's
or PruneReport's CSV, or with --chart the chart data of several
EvalReports. Exit codes: 0 success, 2 usage/config error, 3 runtime
failure; errors print JSON to stderr.

The MINIMT_CONFIG_DIR environment variable supplies the directory against
which bare config file names are resolved.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time

from . import __version__
from .bench import DecodeConfig, decode_corpus
from .checkpoint import checkpoint_bytes, load_checkpoint
from .compress import (
    STRATEGY_ITERATIVE,
    STRATEGY_MIDDLE,
    DistillConfig,
    PruneConfig,
    PruneReport,
    distill,
    iterative_prune,
    layer_importance_eval,
    middle_prune,
)
from .corpus import SplitSpec, corpus_jsonl, read_corpus
from .filtering import (
    FilterConfig,
    ForcedLogProbQualityScorer,
    PivotTranslationEmbedder,
    ScorerSet,
    langid_scorers,
    run_pipeline,
)
from .langid import train_langid
from .metrics import evaluate_direction
from .model import ModelConfig, init_model, quantize_fp16
from .reports import EvalReport, RunManifest, publish, quality_efficiency_csv
from .rng import Rng
from .synthetic import (
    NoiseRates,
    ToyLanguageSpec,
    generate_synthetic_corpus,
    langid_seed_corpus,
)
from .training import TrainConfig, train
from .vocab import vocab_from_corpus

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
ENV_CONFIG_DIR = "MINIMT_CONFIG_DIR"
SCHEMA_VERSION = 1
# gen-data's langid_seed.jsonl holds this many sentences per language
LANGID_SEED_SIZE = 80


class ConfigError(Exception):
    pass


def _resolve_config_path(name: str) -> str:
    if os.path.exists(name):
        return name
    base = os.environ.get(ENV_CONFIG_DIR)
    if base and not os.path.isabs(name):
        candidate = os.path.join(base, name)
        if os.path.exists(candidate):
            return candidate
    raise ConfigError(f"config file not found: {name}")


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"--set expects dotted.path=value, got {text!r}")
    path, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path.split("."), value


def load_config(path: str | None, overrides, keys) -> dict:
    """The config file's object (or {}) with the overrides applied; a
    top-level key outside keys, schema_version aside, is a config error."""
    cfg: dict = {}
    if path:
        with open(_resolve_config_path(path)) as f:
            try:
                cfg = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        version = cfg.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
    for flag in overrides or ():
        dotted, value = _parse_override(flag)
        node = cfg
        for k in dotted[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {'.'.join(dotted)} crosses a non-object")
        node[dotted[-1]] = value
    return _known(cfg, ("schema_version", *keys), "config")


def _known(node: dict, keys, what: str) -> dict:
    """node, or a config error naming every key of it outside keys."""
    unknown = sorted(set(node) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {what} key(s) {unknown}; "
                          f"expected some of {sorted(keys)}")
    return node


def _number(kind, node: dict, key: str, default):
    """kind(node[key]), or kind(default) when the key is absent. A value
    kind() rejects, a bool, or a fraction where kind is int is a config
    error."""
    value = node.get(key, default)
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {value!r}") from None


def _numbers(kind, node: dict, keys) -> dict:
    """{key: _number(kind, node, key, None)} for each of keys that node
    sets; a key it leaves out keeps the default of the class built from
    the result."""
    return {key: _number(kind, node, key, None) for key in keys if key in node}


def _section(cfg: dict, key: str) -> dict:
    """cfg[key], or {} when the key is absent; a config error unless it is
    a JSON object."""
    node = cfg.get(key, {})
    if not isinstance(node, dict):
        raise ConfigError(f"{key} must be a JSON object, got {node!r}")
    return node


def _build(cls, obj: dict, what: str):
    try:
        return cls(**obj)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {what} config: {e}") from None


def _run(command: str, cfg: dict, seed, inputs, manifest_path: str, work,
         timings: dict | None = None) -> int:
    """The run lifecycle of every manifest-writing subcommand: hash the
    input files, time work(), which returns the {path: bytes | str} outputs,
    then publish the outputs and a RunManifest of their hashes together.
    timings["wall_seconds"] covers all of work(), building the output bytes
    included. The entries work() puts in timings, timed on the same clock,
    time.monotonic, join the manifest's timings."""
    manifest = RunManifest(command=command, config=cfg, seed=seed,
                           toolkit_version=__version__)
    for path in inputs:
        manifest.add_input(path)
    t0 = time.monotonic()
    files = work()
    manifest.timings.update(timings or {}, wall_seconds=time.monotonic() - t0)
    for path, data in files.items():
        manifest.add_output(path, data)
    publish({**files, manifest_path: manifest.to_json()})
    return EXIT_OK


def _read(path):
    records, report = read_corpus(path)
    if report.n_malformed:
        print(f"warning: {report.n_malformed} malformed lines in {path}",
              file=sys.stderr)
    return records


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, args.set,
                      ("seed", "train_size", "dev_size", "devtest_size",
                       "noise_rates"))
    seed = _number(int, cfg, "seed", 0)
    sizes = _build(SplitSpec, _numbers(
        int, cfg, ("train_size", "dev_size", "devtest_size")), "split")
    noise = _build(NoiseRates, _section(cfg, "noise_rates"), "noise")
    spec = ToyLanguageSpec()

    def work():
        corpus = generate_synthetic_corpus(spec, sizes, noise, seed)
        seeds = langid_seed_corpus(spec, LANGID_SEED_SIZE, seed)
        files = {os.path.join(args.out_dir, f"{split}.jsonl"):
                 corpus_jsonl(getattr(corpus, split))
                 for split in ("train", "dev", "devtest")}
        # ground-truth noise flags, sidecar only (never read by the pipeline)
        files[os.path.join(args.out_dir, "train_flags.jsonl")] = "".join(
            json.dumps({"index": i, "flags": sorted(r.flags)}) + "\n"
            for i, r in enumerate(corpus.train) if r.flags)
        files[os.path.join(args.out_dir, "langid_seed.jsonl")] = "".join(
            json.dumps({"lang": lang, "text": s}) + "\n"
            for lang in sorted(seeds) for s in seeds[lang])
        return files

    return _run("gen-data", cfg, seed, [],
                os.path.join(args.out_dir, "manifest.json"), work)


def _load_langid_seed(path) -> dict[str, list[str]]:
    seeds: dict[str, list[str]] = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            obj = json.loads(line)
            seeds.setdefault(obj["lang"], []).append(obj["text"])
    return seeds


def cmd_filter(args) -> int:
    cfg = load_config(args.config, args.set, ("filter", "semantic_pivot_lang", "qe"))
    fc = _build(FilterConfig, _section(cfg, "filter"), "filter")
    qe_cfg = _known(_section(cfg, "qe"), ("midpoint", "scale"), "qe")

    scorers = ScorerSet()
    inputs = [args.infile]   # and every file that scores a stage
    if fc.enabled("language_detection"):
        if not args.langid_seed:
            raise ConfigError(
                "language detection is enabled: pass --langid-seed or disable "
                "the stage via filter.stages_enabled")
        scorers.langid = langid_scorers(train_langid(_load_langid_seed(args.langid_seed)))
        inputs.append(args.langid_seed)
    model = None
    if fc.enabled("semantic") or fc.enabled("quality_estimation"):
        if not args.model:
            raise ConfigError(
                "semantic/quality stages are enabled: pass --model or disable "
                "them via filter.stages_enabled")
        model = load_checkpoint(args.model)
        inputs.append(args.model)
    if fc.enabled("semantic"):
        pivot = cfg.get("semantic_pivot_lang")
        if not pivot:
            raise ConfigError("semantic stage needs semantic_pivot_lang in config")
        scorers.embedder = PivotTranslationEmbedder(model, pivot)
    if fc.enabled("quality_estimation"):
        scorers.qe = ForcedLogProbQualityScorer(
            model, **_numbers(float, qe_cfg, ("midpoint", "scale")))

    records = _read(args.infile)
    timings: dict = {}

    def work():
        kept, report = run_pipeline(records, fc, scorers, timings)
        return {args.out: corpus_jsonl(kept),
                args.report or args.out + ".filter_report.json": report.to_json()}

    return _run("filter", cfg, None, inputs, args.out + ".manifest.json", work,
                timings)


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set, ("seed", "train", "model"))
    seed = _number(int, cfg, "seed", 0)
    tc = _build(TrainConfig, {**_section(cfg, "train"), "seed": seed}, "train")

    train_records = _read(args.train_corpus)
    dev_records = _read(args.dev_corpus)
    if not train_records:
        raise ConfigError("training corpus is empty")
    vocab = vocab_from_corpus(train_records + dev_records)
    mc = _build(ModelConfig, {**_section(cfg, "model"), "vocab_size": len(vocab)},
                "model")

    def work():
        model = init_model(mc, vocab, Rng(seed), metadata={"seed": str(seed)})
        best, log = train(model, train_records, dev_records, tc)
        best.metadata["stage"] = "trained"
        log_text = json.dumps({
            "stop_reason": log.stop_reason,
            "optimizer_steps": log.optimizer_steps,
            "best_step": log.best_step,
            "best_dev_loss": log.best_dev_loss,
            "evaluations": [{"step": e.step, "epoch": e.epoch,
                             "dev_loss": e.dev_loss, "improved": e.improved}
                            for e in log.entries],
        }, indent=2)
        return {args.out: checkpoint_bytes(best),
                args.out + ".train_log.json": log_text}

    return _run("train", cfg, seed, [args.train_corpus, args.dev_corpus],
                args.out + ".manifest.json", work)


def cmd_distill(args) -> int:
    cfg = load_config(args.config, args.set, ("distill",))
    dc = _build(DistillConfig, _section(cfg, "distill"), "distill")
    teacher = load_checkpoint(args.teacher)
    authentic = _read(args.corpus)

    return _run("distill", cfg, None, [args.teacher, args.corpus],
                args.out + ".manifest.json",
                lambda: {args.out: corpus_jsonl(distill(teacher, authentic, dc,
                                                        authentic))})


def cmd_prune(args) -> int:
    cfg = load_config(args.config, args.set, ("prune",))
    section = _section(cfg, "prune")
    # only iterative pruning scores candidates on dev data
    strategy = section.get("strategy", PruneConfig.strategy)
    if strategy == STRATEGY_ITERATIVE and args.dev is None:
        raise ConfigError("prune.strategy=iterative needs --dev")
    if strategy == STRATEGY_MIDDLE and args.dev is not None:
        raise ConfigError("prune.strategy=middle reads no dev file; drop --dev")
    dev_records, defaults = None, {}
    if args.dev is not None:
        dev_records = _read(args.dev)
        defaults["importance_directions"] = sorted({(r.src_lang, r.tgt_lang)
                                                    for r in dev_records})
    pc = _build(PruneConfig, {**defaults, **section}, "prune")

    model = load_checkpoint(args.ckpt)
    timings: dict = {}

    def timed_importance(*args_):
        """layer_importance_eval, timed into one entry per pass."""
        start = time.monotonic()
        scores = layer_importance_eval(*args_)
        timings[f"importance_pass_{len(timings)}_seconds"] = time.monotonic() - start
        return scores

    def work():
        if pc.strategy == STRATEGY_ITERATIVE:
            pruned, report = iterative_prune(model, pc, dev_records,
                                             importance_fn=timed_importance)
        else:
            pruned, report = middle_prune(model, pc)
        pruned.metadata.update({"stage": "pruned", "parent": model.fingerprint()})
        return {args.out: checkpoint_bytes(pruned),
                args.report or args.out + ".prune_report.json": report.to_json()}

    return _run("prune", cfg, None, [args.ckpt] + ([args.dev] if args.dev else []),
                args.out + ".manifest.json", work, timings)


def cmd_quantize(args) -> int:
    model = load_checkpoint(args.ckpt)

    def work():
        q = quantize_fp16(model)
        q.metadata.update({"stage": "fp16", "parent": model.fingerprint()})
        return {args.out: checkpoint_bytes(q)}

    return _run("quantize", {}, None, [args.ckpt], args.out + ".manifest.json",
                work)


def _decode_setup(args, cfg):
    """What evaluate and bench share: the decode config, the checkpoint and
    a test set that must not be empty."""
    dc = _build(DecodeConfig, _section(cfg, "decode"), "decode")
    model = load_checkpoint(args.ckpt)
    testset = _read(args.testset)
    if not testset:
        raise ConfigError("testset is empty")
    return dc, model, testset


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, args.set, ("decode",))
    dc, model, testset = _decode_setup(args, cfg)

    def work():
        groups: dict[str, list] = {}
        for r in testset:
            groups.setdefault(r.direction, []).append(r)
        report = EvalReport(rows=[evaluate_direction(model, groups[d], dc)
                                  for d in sorted(groups)])
        return {args.out: report.to_json()}

    return _run("evaluate", cfg, None, [args.ckpt, args.testset],
                args.out + ".manifest.json", work)


def cmd_bench(args) -> int:
    cfg = load_config(args.config, args.set,
                      ("repetitions", "warmup_batches", "decode"))
    repetitions = _number(int, cfg, "repetitions", 3)
    warmup = _number(int, cfg, "warmup_batches", 1)
    if repetitions < 1:
        raise ConfigError(f"repetitions must be at least 1, got {repetitions}")
    if warmup < 0:
        raise ConfigError(f"warmup_batches must be at least 0, got {warmup}")
    dc, model, testset = _decode_setup(args, cfg)

    def work():
        runs = [decode_corpus(model, testset, dc, warmup_batches=warmup)
                for _ in range(repetitions)]
        return {args.out: json.dumps({
            "model_id": model.model_id(),
            "decode": dataclasses.asdict(dc),
            "repetitions": [{
                "tokens_per_second": r.tokens_per_second,
                "timed_seconds": r.timed_seconds,
                "total_seconds": r.total_seconds,
                "output_tokens": r.output_tokens,
            } for r in runs],
            "median_tokens_per_second": statistics.median(
                r.tokens_per_second for r in runs),
        }, indent=2, sort_keys=True)}

    return _run("bench", cfg, None, [args.ckpt, args.testset],
                args.out + ".manifest.json", work)


def cmd_report(args) -> int:
    if args.chart:
        labeled = []
        for path in args.infile:
            label = os.path.splitext(os.path.basename(path))[0]
            with open(path) as f:
                labeled.append((label, EvalReport.from_json(f.read())))
        publish({args.out: quality_efficiency_csv(labeled)})
        return EXIT_OK

    if len(args.infile) != 1:
        raise ConfigError("report conversion expects exactly one --in file")
    with open(args.infile[0]) as f:
        text = f.read()
    obj = json.loads(text)
    if "rows" in obj:
        report = EvalReport.from_json(text)
    elif "strategy" in obj:
        report = PruneReport.from_json(text)
    else:
        raise ConfigError("unrecognized report JSON shape")
    publish({args.out: report.to_csv()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="minimt",
        description="desk-scale translation model compression toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--set", action="append", default=[],
                        metavar="PATH=VALUE", help="override a config field")

    sp = sub.add_parser("gen-data", help="generate the synthetic toy corpus")
    common(sp)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("filter", help="run the staged filtering pipeline")
    common(sp)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--report")
    sp.add_argument("--langid-seed")
    sp.add_argument("--model", help="checkpoint for semantic/QE stages")
    sp.set_defaults(func=cmd_filter)

    sp = sub.add_parser("train", help="train a model from scratch")
    common(sp)
    sp.add_argument("--train-corpus", required=True)
    sp.add_argument("--dev-corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("distill", help="generate a KD corpus with a teacher")
    common(sp)
    sp.add_argument("--teacher", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_distill)

    sp = sub.add_parser("prune", help="layer-prune a checkpoint")
    common(sp)
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--dev", help="dev corpus (iterative strategy only)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--report")
    sp.set_defaults(func=cmd_prune)

    sp = sub.add_parser("quantize", help="store weights in half precision")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_quantize)

    sp = sub.add_parser("evaluate", help="score a checkpoint on a test set")
    common(sp)
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--testset", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("bench", help="measure decoding throughput")
    common(sp)
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--testset", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("report", help="write a report as CSV, or chart reports")
    sp.add_argument("--in", dest="infile", action="append", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--chart", choices=["quality-efficiency"])
    sp.set_defaults(func=cmd_report)

    return p


def _error_record(kind: str, exc: BaseException):
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        _error_record("config", e)
        return EXIT_USAGE
    except Exception as e:  # noqa: BLE001 - CLI boundary
        _error_record(type(e).__name__, e)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
