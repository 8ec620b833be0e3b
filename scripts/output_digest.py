"""Print one sha256 per benchmark workload and seed over every output the
benchmark checks, so that two checkouts can be compared for byte identity:

    python3 scripts/output_digest.py <checkout-a> > a.txt
    python3 scripts/output_digest.py <checkout-b> > b.txt
    diff a.txt b.txt

Each workload of <checkout>/perfbench runs one operation per seed with that
checkout's minimt. Digested: translate hypotheses and output token counts
(beam 1 and 3), the PruneReport JSON and fp16 checkpoint bytes, the filter's
kept records and FilterReport JSON, and train's optimizer steps and dev
loss. Timings are left out. Nothing is written inside the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

SEEDS = (101, 102, 103)


def outputs(name: str, workload) -> list:
    """The checked outputs of one operation, timings excluded."""
    out = workload.op().out
    if name == "train":
        return [out["steps"], repr(out["dev_loss"])]
    if name == "translate":
        return [(beam, hyps, tokens) for beam, (hyps, tokens, *_) in sorted(out.items())]
    if name == "prune":
        _, fp16_bytes, _ = workload.last
        return [out["report"], hashlib.sha256(fp16_bytes).hexdigest()]
    return [repr(out["kept"]), out["report"].to_json()]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", type=Path, help="root of a minimt checkout")
    args = p.parse_args()
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
