"""Print one sha256 per benchmark workload and seed over every output the
benchmark checks, so that two checkouts can be compared for byte identity:

    python3 scripts/output_digest.py <checkout-a> > a.txt
    python3 scripts/output_digest.py <checkout-b> > b.txt
    diff a.txt b.txt

`--cpus N` runs the script on the first N CPUs of its affinity, so that one
checkout's digests on 1 and 2 CPUs can be diffed too.

Each workload of <checkout>/perfbench runs one operation per seed with that
checkout's minimt. Digested: translate hypotheses and output token counts
(beam 1 and 3), the PruneReport JSON and fp16 checkpoint bytes, the filter's
kept records and FilterReport JSON with the float bytes of every semantic
embedding and QE score it computed (a score change that flips no threshold
decision shows too), and train's optimizer steps, dev loss and the bytes of
the trained weights. Timings are left out. Nothing is written inside the
checkout.
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
        return [(beam, hyps, tokens) for beam, (hyps, tokens, *_) in sorted(out.items())]
    if name == "prune":
        _, fp16_bytes, _ = workload.last
        return [out["report"], hashlib.sha256(fp16_bytes).hexdigest()]
    return [repr(out["kept"]), out["report"].to_json(),
            float_digest(embeddings), float_digest(qe_scores)]


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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
