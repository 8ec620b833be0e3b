"""Print the sha256 of every artifact the minimt CLI writes, manifests
included, so that two checkouts can be compared for byte identity:

    python3 scripts/cli_digest.py <checkout-a> > a.txt
    python3 scripts/cli_digest.py <checkout-b> > b.txt
    diff a.txt b.txt

Every subcommand runs once, through <checkout>'s own `minimt.cli.main`, on a
small generated corpus in a fresh temporary directory, with paths relative
to it so that the manifests do not name the directory. `time.monotonic` is
replaced by one counter per calling module, each advancing a fixed step per
call and restarted for each subcommand, so the recorded timings and
throughputs are the same on every run, and one module's clock reads do not
shift another's timings. Nothing is written inside the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import sys
import tempfile
import time
from pathlib import Path

TINY_MODEL = [
    "--set", "model.d_model=16", "--set", "model.n_heads=2",
    "--set", "model.ffn_dim=32", "--set", "model.n_encoder_layers=2",
    "--set", "model.n_decoder_layers=2", "--set", "model.max_positions=64",
    "--set", "train.learning_rate=0.001", "--set", "train.max_epochs=1",
    "--set", "train.eval_every_steps=50", "--set", "train.batch_size=8",
    "--set", "train.grad_accum_steps=1",
]
DECODE = ["--set", "decode.beam_size=2", "--set", "decode.max_output_length=24"]

RUNS = [
    ["gen-data", "--out-dir", "data", "--set", "train_size=40",
     "--set", "dev_size=10", "--set", "devtest_size=6",
     "--set", "noise_rates.html=0.1", "--set", "noise_rates.duplicate=0.1"],
    ["filter", "--in", "data/train.jsonl", "--out", "clean.jsonl",
     "--langid-seed", "data/langid_seed.jsonl",
     "--set", "filter.stages_enabled.semantic=false",
     "--set", "filter.stages_enabled.quality_estimation=false"],
    ["train", "--train-corpus", "clean.jsonl", "--dev-corpus",
     "data/dev.jsonl", "--out", "base.ckpt", *TINY_MODEL],
    # all four stages, scored by the model just trained; the threshold and
    # QE midpoint suit its low scores, so the QE stage keeps some records
    ["filter", "--in", "data/train.jsonl", "--out", "scored.jsonl",
     "--langid-seed", "data/langid_seed.jsonl", "--model", "base.ckpt",
     "--set", "semantic_pivot_lang=anu_Latn", "--set", "filter.threshold=0.3",
     "--set", "qe.midpoint=-3"],
    # the training corpus spans more than one 1024-token decode batch
    ["distill", "--teacher", "base.ckpt", "--corpus", "data/train.jsonl",
     "--out", "kd.jsonl", "--set", "distill.beam_size=2",
     "--set", "distill.max_len=24"],
    ["prune", "--ckpt", "base.ckpt", "--dev", "data/dev.jsonl",
     "--out", "pruned.ckpt", "--set", "prune.strategy=iterative",
     "--set", "prune.n=1", "--set", "prune.max_len=24"],
    # one layer off each side, so that an importance pass scores encoder
    # candidates too
    ["prune", "--ckpt", "base.ckpt", "--dev", "data/dev.jsonl",
     "--out", "pruned-both.ckpt", "--set", "prune.strategy=iterative",
     "--set", "prune.n=1", "--set", "prune.sides=encoder+decoder",
     "--set", "prune.max_len=24"],
    ["quantize", "--ckpt", "pruned.ckpt", "--out", "pruned-fp16.ckpt"],
    ["evaluate", "--ckpt", "pruned.ckpt", "--testset", "data/devtest.jsonl",
     "--out", "eval.json", *DECODE],
    ["bench", "--ckpt", "pruned.ckpt", "--testset", "data/devtest.jsonl",
     "--out", "bench.json", "--set", "repetitions=2", *DECODE],
    ["report", "--in", "eval.json", "--out", "report.csv"],
    ["report", "--in", "eval.json", "--chart", "quality-efficiency",
     "--out", "chart.csv"],
]


class ModuleClocks:
    """A time.monotonic stand-in: a counter per calling module, from 1.0,
    one second per call."""

    def __init__(self):
        self.counters: dict[str, itertools.count] = {}

    def __call__(self) -> float:
        module = sys._getframe(1).f_globals.get("__name__", "")
        return next(self.counters.setdefault(module, itertools.count(1.0)))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", type=Path, help="root of a minimt checkout")
    args = p.parse_args()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from minimt import cli

    home, real_monotonic = os.getcwd(), time.monotonic
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for argv in RUNS:
                time.monotonic = ModuleClocks()
                rc = cli.main(argv)
                if rc != cli.EXIT_OK:
                    print(f"{argv[0]} exited {rc}", file=sys.stderr)
                    return 1
            for path in sorted(Path(".").rglob("*")):
                if path.is_file():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{path.as_posix()} {digest}", flush=True)
        finally:
            time.monotonic = real_monotonic
            os.chdir(home)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
