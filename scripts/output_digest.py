"""Print one sha256 per benchmark workload and seed over every output the
benchmark checks, so that two checkouts can be compared for byte identity:

    python3 scripts/output_digest.py <checkout-a> > a.txt
    python3 scripts/output_digest.py <checkout-b> > b.txt
    diff a.txt b.txt

`--cpus N` runs the script on the first N CPUs of its affinity, so that one
checkout's digests on 1 and 2 CPUs can be diffed too.

Each workload of <checkout>/perfbench runs one operation per seed with that
checkout's minimt. Digested: translate hypotheses and output token counts
(beam 1 and 3) with every BeamResult's tokens, finished flag and float64
logprob and score bytes (a score change that keeps the hypothesis shows
too), the PruneReport JSON and fp16 checkpoint bytes, the filter's
kept records and FilterReport JSON with the float bytes of every semantic
embedding and QE score it computed (a score change that flips no threshold
decision shows too), and train's optimizer steps, dev loss and the bytes of
the trained weights. Timings are left out. Nothing is written inside the
checkout.

Last, one `importance` line per seed digests the float bytes of every
score of compress.layer_importance_eval on the frozen model over the prune
workload's dev sets, both sides at beam 3, which reaches the encoder-side
candidates and the beam search over shared decoder trunks that prune's
own decoder-only beam-1 pass does not.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import sys
import tempfile
from pathlib import Path

SEEDS = (101, 102, 103)


def recorded(obj, method: str, calls: list) -> None:
    """Wrap obj.method so that every value it returns is appended to calls."""
    fn = getattr(obj, method)

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(out)
        return out

    setattr(obj, method, wrapper)


def float_digest(calls: list) -> str:
    """sha256 over the bytes of every value (a float or an array) of every
    returned list in calls, in order."""
    h = hashlib.sha256()
    for values in calls:
        for v in values:
            h.update(v.tobytes() if hasattr(v, "tobytes") else struct.pack("<d", v))
    return h.hexdigest()


def params_digest(model) -> str:
    """sha256 over a model's parameter names and bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].tobytes())
    return h.hexdigest()


def beam_results_digest(workload, beam: int) -> str:
    """sha256 over the BeamResults of translate's records at one beam, from
    decode.translate_batch over the batches decode_corpus makes, called in
    this process: decode_corpus decodes them in pool workers, where a
    wrapper would not see the calls."""
    from minimt import bench, decode

    cfg = workload._cfg(beam)
    h = hashlib.sha256()
    for batch in bench.batch_by_tokens(workload.records, cfg.batch_token_budget,
                                       bench.encoder_token_count(workload.model.vocab)):
        for r in decode.translate_batch(workload.model,
                                        [(r.src, r.src_lang, r.tgt_lang) for r in batch],
                                        beam, cfg.max_output_length):
            h.update(repr((r.tokens, r.finished)).encode())
            h.update(struct.pack("<dd", r.logprob, r.score))
    return h.hexdigest()


def outputs(name: str, workload) -> list:
    """The checked outputs of one operation, timings excluded."""
    from minimt import training

    if name == "filter":
        embeddings, qe_scores = [], []
        recorded(workload.scorers.embedder, "embed_batch", embeddings)
        recorded(workload.scorers.qe, "score_batch", qe_scores)
    if name == "train":
        trained, train = [], training.train
        recorded(training, "train", trained)
        try:
            out = workload.op().out
        finally:
            training.train = train
        (model, _log), = trained
        return [out["steps"], repr(out["dev_loss"]), params_digest(model)]
    out = workload.op().out
    if name == "translate":
        return [(beam, hyps, tokens, beam_results_digest(workload, beam))
                for beam, (hyps, tokens, *_) in sorted(out.items())]
    if name == "prune":
        _, fp16_bytes, _ = workload.last
        return [out["report"], hashlib.sha256(fp16_bytes).hexdigest()]
    return [repr(out["kept"]), out["report"].to_json(),
            float_digest(embeddings), float_digest(qe_scores)]


def importance_digest(workload) -> str:
    """sha256 over layer_importance_eval's scores of workload's model
    (set up), both sides at beam 3, in key order."""
    import workloads
    from minimt import compress

    scores = compress.layer_importance_eval(workload.model, ["encoder", "decoder"],
                                            workload.dev_sets, 3, workloads.MAX_LEN)
    return float_digest([[scores[key] for key in sorted(scores)]])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", type=Path, help="root of a minimt checkout")
    p.add_argument("--cpus", type=int, default=None,
                   help="run on the first N CPUs this process may use")
    args = p.parse_args()
    if args.cpus is not None:
        cpus = sorted(os.sched_getaffinity(0))
        if not 1 <= args.cpus <= len(cpus):
            p.error(f"--cpus must be between 1 and {len(cpus)}")
        os.sched_setaffinity(0, cpus[:args.cpus])
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.checkout.resolve() / "perfbench"))
    import bootstrap  # the checkout's: pins BLAS threads, loads its minimt

    bootstrap.pin_threads()
    bootstrap.import_minimt()
    import workloads

    with tempfile.TemporaryDirectory() as scratch:
        for name in workloads.NAMES:
            for seed in SEEDS:
                workload = workloads.make(name, workloads.FULL, Path(scratch))
                workload.setup(seed)
                digest = hashlib.sha256(repr(outputs(name, workload)).encode())
                print(f"{name} seed={seed} {digest.hexdigest()}", flush=True)
        for seed in SEEDS:
            workload = workloads.make("prune", workloads.FULL, Path(scratch))
            workload.setup(seed)
            print(f"importance seed={seed} {importance_digest(workload)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
