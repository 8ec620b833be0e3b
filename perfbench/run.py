"""Benchmark entry point.

    python3 perfbench/run.py --workload train|translate|prune|filter \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Prints one line per metric (name, value,
unit, which direction is better), a line recording the environment, and
as the last line a JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. The run's manifest (and, when traced, its spans) goes to
.perfbench_out/ in the checkout.
"""

import time

T0 = time.perf_counter()

import bootstrap  # noqa: E402

bootstrap.pin_threads()
minimt = bootstrap.import_minimt()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - T0
OUT_DIR = bootstrap.ROOT / ".perfbench_out"


def blas_version() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, if it has one."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Identifies the measured code when the checkout is not a repository."""
    h = hashlib.sha256()
    for path in sorted((bootstrap.ROOT / "src" / "minimt").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main():
    args = parse_args()
    load_start = os.getloadavg()
    m = workloads.measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), IMPORT_S, workloads.FULL,
                          OUT_DIR / "scratch")
    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": {v: os.environ[v] for v in bootstrap.THREAD_VARS},
        "nproc": os.cpu_count(), "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_version(),
        "git_commit": git_commit(), "source_sha256": source_sha256(),
    }
    table = tracing.PER_LAYER if args.trace else workloads.E2E
    for name, value in m.metrics.items():
        unit, better = table[name]
        print(f"{name:44s} {value:14.6g} {unit:8s} {better} is better")
    for name, (value, unit, better) in m.named.items():
        print(f"{name:44s} {value:14.6g} {unit:8s} {better} is better")
    for failure in m.failures:
        print(f"FAILED: {failure.strip()}")
    print("environment " + json.dumps(environment))
    if not m.metrics:
        raise SystemExit("perfbench: no operation completed; no result")

    result = {
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": min(len(m.failures), m.attempted),
        "metrics": {k: {"value": v, "unit": table[k][0]}
                    for k, v in m.metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    manifest = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    manifest.write_text(json.dumps({
        "environment": environment, "result": result,
        "named": {k: list(v) for k, v in m.named.items()},
        "op_seconds": m.op_seconds, "setup_seconds": m.setup_seconds,
        "import_seconds": IMPORT_S, "failures": m.failures,
        "spans": m.spans, "span_fields": ["name", "start", "end", "parent", "run"],
    }))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
