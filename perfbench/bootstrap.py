"""Process set-up shared by the benchmark's entry points.

Call pin_threads() before anything imports numpy: the installed OpenBLAS
otherwise starts one thread per core, and on a small shared machine those
threads make timings wander. import_minimt() loads the toolkit from this
checkout's src/ and refuses any other copy, so the benchmark fails loudly
(exit code 2) when run outside a full checkout.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def import_minimt():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import minimt
    except ImportError as e:
        sys.stderr.write(f"perfbench: cannot import minimt from {src}: {e}\n")
        raise SystemExit(2) from None
    if Path(minimt.__file__).resolve().parent != src / "minimt":
        sys.stderr.write(f"perfbench: minimt loaded from {minimt.__file__}, "
                         f"not from {src}\n")
        raise SystemExit(2)
    return minimt
